/* LD_PRELOAD heap profiler: interposes malloc/calloc/realloc/free/
 * posix_memalign/aligned_alloc, keeps the live bytes and blocks of every
 * call site (a site is a backtrace() stack), copies that table whenever the
 * live total has grown 1 MiB past the last copy and, at exit, writes the
 * last copy — the heap at its peak, to within a MiB — with the process's
 * mappings to $HEAPPROF_OUT for resolve.py. Built and driven by
 * heapprof.sh; the CPU profile's sibling (sigprof.c).
 *
 * Every block carries a 16-byte header below the pointer handed out (its
 * size, its site, the distance back to what libc returned), so free() needs
 * no look-up; the sizes counted are the ones asked for. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#define DEPTH 24           /* frames kept per site, this file's own included */
#define SITES (1u << 16)   /* slots; slot 0 takes what a full table turns away */
#define UNCOUNTED UINT32_MAX /* site of a block born inside a hook */
#define STEP (1l << 20)    /* growth of the live total between two copies */
#define HEADER 16          /* sizeof(struct header), and malloc's alignment */

struct header {
    uint64_t size;
    uint32_t site;
    uint32_t offset; /* from libc's pointer to the one handed out */
};

struct site {
    uint64_t hash;
    int64_t bytes, blocks;           /* live now */
    int64_t peak_bytes, peak_blocks; /* at the last copy */
    int depth;
    void *stack[DEPTH];
};

static struct site sites[SITES]; /* untouched pages cost nothing */
static uint32_t used[SITES];     /* the slots taken, for the copy */
static uint32_t n_used;
static int64_t live, copied_live, copied_blocks, live_blocks;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;

static void *(*real_malloc)(size_t);
static void *(*real_calloc)(size_t, size_t);
static void *(*real_realloc)(void *, size_t);
static void (*real_free)(void *);
static int (*real_posix_memalign)(void **, size_t, size_t);

/* dlsym() itself calls calloc: while the real functions are being looked
 * up, requests are served from here and never freed. */
static char boot[1 << 16] __attribute__((aligned(HEADER)));
static size_t boot_used;
static int resolving;

/* Set while a hook does its own work: what backtrace() allocates is not
 * the program's. initial-exec, or the first access would itself malloc. */
static __thread int inside __attribute__((tls_model("initial-exec")));

static int from_boot(void *p) {
    return (char *)p >= boot && (char *)p < boot + sizeof boot;
}

static void *boot_alloc(size_t n) {
    size_t at = boot_used;
    n = (n + HEADER - 1) & ~(size_t)(HEADER - 1);
    if (at + n > sizeof boot) abort();
    boot_used = at + n;
    return boot + at; /* static storage: already zero */
}

static void resolve(void) {
    resolving = 1;
    real_malloc = dlsym(RTLD_NEXT, "malloc");
    real_calloc = dlsym(RTLD_NEXT, "calloc");
    real_realloc = dlsym(RTLD_NEXT, "realloc");
    real_free = dlsym(RTLD_NEXT, "free");
    real_posix_memalign = dlsym(RTLD_NEXT, "posix_memalign");
    resolving = 0;
}

/* The slot of the calling stack, taken if new; 0 once the table is full. */
static uint32_t site_of(void **stack, int depth) {
    uint64_t hash = 1469598103934665603ull;
    for (int d = 0; d < depth; d++) hash = (hash ^ (uintptr_t)stack[d]) * 1099511628211ull;
    if (!hash) hash = 1;
    for (uint32_t probe = 0; probe < SITES; probe++) {
        uint32_t at = (uint32_t)((hash + probe) % (SITES - 1)) + 1;
        struct site *s = &sites[at];
        if (s->hash == hash) return at;
        if (!s->hash) {
            if (n_used >= SITES / 2) return 0;
            s->hash = hash;
            s->depth = depth;
            memcpy(s->stack, stack, (size_t)depth * sizeof *stack);
            used[n_used++] = at;
            return at;
        }
    }
    return 0;
}

static void block_born(struct header *h, size_t size) {
    void *stack[DEPTH];
    h->size = size;
    h->site = UNCOUNTED;
    if (inside) return;
    inside = 1;
    int depth = backtrace(stack, DEPTH);
    pthread_mutex_lock(&lock);
    h->site = site_of(stack, depth);
    sites[h->site].bytes += (int64_t)size;
    sites[h->site].blocks += 1;
    live += (int64_t)size;
    live_blocks += 1;
    if (live > copied_live + STEP) {
        for (uint32_t i = 0; i < n_used; i++) {
            struct site *s = &sites[used[i]];
            s->peak_bytes = s->bytes;
            s->peak_blocks = s->blocks;
        }
        sites[0].peak_bytes = sites[0].bytes;
        sites[0].peak_blocks = sites[0].blocks;
        copied_live = live;
        copied_blocks = live_blocks;
    }
    pthread_mutex_unlock(&lock);
    inside = 0;
}

static void block_died(struct header *h) {
    if (h->site == UNCOUNTED) return;
    pthread_mutex_lock(&lock);
    sites[h->site].bytes -= (int64_t)h->size;
    sites[h->site].blocks -= 1;
    live -= (int64_t)h->size;
    live_blocks -= 1;
    pthread_mutex_unlock(&lock);
}

/* `size` bytes at a multiple of `align` (a power of two), header below. */
static void *alloc(size_t align, size_t size, int zeroed) {
    char *raw;
    size_t offset = align > HEADER ? align : HEADER;
    if (resolving) return boot_alloc(size);
    if (!real_malloc) resolve();
    if (size > SIZE_MAX - offset) return 0;
    if (align > HEADER) {
        void *p;
        if (real_posix_memalign(&p, align, size + offset)) return 0;
        raw = p;
        if (zeroed) memset(raw, 0, size + offset);
    } else {
        raw = zeroed ? real_calloc(1, size + offset) : real_malloc(size + offset);
        if (!raw) return 0;
    }
    struct header *h = (struct header *)(raw + offset) - 1;
    h->offset = (uint32_t)offset;
    block_born(h, size);
    return raw + offset;
}

void *malloc(size_t size) { return alloc(HEADER, size, 0); }

void *calloc(size_t n, size_t each) {
    if (each && n > SIZE_MAX / each) {
        errno = ENOMEM;
        return 0;
    }
    return alloc(HEADER, n * each, 1);
}

int posix_memalign(void **out, size_t align, size_t size) {
    if (align < sizeof(void *) || (align & (align - 1))) return EINVAL;
    void *p = alloc(align, size, 0);
    if (!p) return ENOMEM;
    *out = p;
    return 0;
}

void *aligned_alloc(size_t align, size_t size) {
    if (!align || (align & (align - 1))) {
        errno = EINVAL;
        return 0;
    }
    return alloc(align, size, 0);
}

void free(void *p) {
    if (!p || from_boot(p)) return;
    struct header *h = (struct header *)p - 1;
    block_died(h);
    real_free((char *)p - h->offset);
}

void *realloc(void *p, size_t size) {
    if (!p) return malloc(size);
    if (!size) {
        free(p);
        return 0;
    }
    if (from_boot(p)) { /* its size is not recorded; the arena's end bounds the copy */
        void *q = malloc(size);
        size_t room = (size_t)(boot + sizeof boot - (char *)p);
        if (q) memcpy(q, p, size < room ? size : room);
        return q;
    }
    struct header *h = (struct header *)p - 1;
    if (h->offset != HEADER) { /* over-aligned: libc's realloc would not keep that */
        void *q = alloc(h->offset, size, 0);
        if (!q) return 0;
        memcpy(q, p, size < h->size ? size : h->size);
        free(p);
        return q;
    }
    if (size > SIZE_MAX - HEADER) return 0;
    struct header old = *h;
    char *raw = real_realloc(h, size + HEADER);
    if (!raw) return 0;
    block_died(&old);
    block_born((struct header *)raw, size);
    return raw + HEADER;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    /* The first backtrace() loads the unwinder, allocating as it does. */
    inside = 1;
    backtrace(warm, 4);
    inside = 0;
}

__attribute__((destructor)) static void stop(void) {
    const char *path = getenv("HEAPPROF_OUT");
    FILE *out, *maps;
    char line[4096];
    inside = 1; /* stdio allocates; the table is final */
    if (!path || !(out = fopen(path, "w"))) return;
    if ((maps = fopen("/proc/self/maps", "r"))) {
        while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
        fclose(maps);
    }
    /* "P <bytes> <blocks>": the copied totals; then one line per site,
     * "H <bytes> <blocks> <frame> <frame> ...", innermost frame first. */
    fprintf(out, "P %ld %ld\n", (long)copied_live, (long)copied_blocks);
    for (uint32_t i = 0; i < n_used; i++) {
        struct site *s = &sites[used[i]];
        if (s->peak_blocks <= 0) continue;
        fprintf(out, "H %ld %ld", (long)s->peak_bytes, (long)s->peak_blocks);
        for (int d = 0; d < s->depth; d++) fprintf(out, " %lx", (unsigned long)s->stack[d]);
        fputc('\n', out);
    }
    if (sites[0].peak_blocks > 0)
        fprintf(out, "H %ld %ld\n", (long)sites[0].peak_bytes, (long)sites[0].peak_blocks);
    fclose(out);
}
