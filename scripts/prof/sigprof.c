/* LD_PRELOAD sampler: records the program counter on every SIGPROF tick of
 * the process CPU timer and, at exit, writes the samples with the process's
 * executable mappings to $FLATPROF_OUT for resolve.py. Built and driven by
 * flatprof.sh; for hosts without perf. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 22)
#define TICK_US 4000 /* 250 Hz of CPU time */

static unsigned long pcs[MAX_SAMPLES];
static unsigned long taken;

static void on_tick(int sig, siginfo_t *info, void *uc) {
    unsigned long k = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    (void)sig, (void)info;
    if (k < MAX_SAMPLES) {
#if defined(__x86_64__)
        pcs[k] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        pcs[k] = ((ucontext_t *)uc)->uc_mcontext.pc;
#else
#error "sigprof.c: read the program counter for this architecture here"
#endif
    }
}

static void set_timer(long us) {
    struct itimerval t = {{0, us}, {0, us}};
    setitimer(ITIMER_PROF, &t, 0);
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
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
    for (unsigned long k = 0; k < n; k++) fprintf(out, "S %lx\n", pcs[k]);
    fclose(out);
}
