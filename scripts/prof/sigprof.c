/* LD_PRELOAD sampler: on every SIGPROF tick of the process CPU timer records
 * the program counter and the call stack above it and, at exit, writes the
 * samples with the process's executable mappings to $FLATPROF_OUT for
 * resolve.py. Built and driven by flatprof.sh; for hosts without perf. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 18) /* 17 minutes of CPU time */
#define MAX_DEPTH 48
#define TICK_US 4000 /* 250 Hz of CPU time */

struct sample {
    unsigned long pc;
    int depth;
    void *stack[MAX_DEPTH];
};

static struct sample samples[MAX_SAMPLES]; /* untouched pages cost nothing */
static unsigned long taken;

static void on_tick(int sig, siginfo_t *info, void *uc) {
    unsigned long k = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    (void)sig, (void)info;
    if (k < MAX_SAMPLES) {
#if defined(__x86_64__)
        samples[k].pc = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        samples[k].pc = ((ucontext_t *)uc)->uc_mcontext.pc;
#else
#error "sigprof.c: read the program counter for this architecture here"
#endif
        /* Handler and signal trampoline first, then the interrupted frame
         * and its callers; resolve.py drops what precedes `pc`. */
        samples[k].depth = backtrace(samples[k].stack, MAX_DEPTH);
    }
}

static void set_timer(long us) {
    struct itimerval t = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &t, 0);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    void *warm[4];
    /* The first backtrace() loads the unwinder and allocates: not from a
     * signal handler. */
    backtrace(warm, 4);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, 0);
    set_timer(TICK_US);
}

__attribute__((destructor)) static void stop(void) {
    const char *path = getenv("FLATPROF_OUT");
    FILE *out, *maps;
    char line[4096];
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    set_timer(0);
    if (!path || !(out = fopen(path, "w"))) return;
    if ((maps = fopen("/proc/self/maps", "r"))) {
        while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
        fclose(maps);
    }
    /* "S <pc> <frame> <frame> ...", innermost frame first. */
    for (unsigned long k = 0; k < n; k++) {
        fprintf(out, "S %lx", samples[k].pc);
        for (int d = 0; d < samples[k].depth; d++)
            fprintf(out, " %lx", (unsigned long)samples[k].stack[d]);
        fputc('\n', out);
    }
    fclose(out);
}
