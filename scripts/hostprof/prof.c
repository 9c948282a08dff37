/* LD_PRELOAD sampling profiler for a box without `perf`.
 *
 * The constructor arms ITIMER_PROF at 1 ms of process CPU time; each SIGPROF
 * stores the interrupted thread's backtrace() into a static buffer (no
 * allocation, no I/O in the handler); the destructor writes /proc/self/maps
 * and the raw frame addresses to $PROF_OUT for report.py to symbolise.
 *
 *   gcc -O2 -shared -fPIC -o prof.so prof.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

#define MAX_DEPTH 64
#define MAX_SAMPLES 200000 /* 200 s of CPU at 1 kHz; untouched pages cost nothing */

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depth[MAX_SAMPLES];
static volatile int n_samples;
static volatile int dropped;

static void on_sigprof(int sig)
{
    (void)sig;
    int i = n_samples;
    if (i >= MAX_SAMPLES) {
        dropped++;
        return;
    }
    depth[i] = (unsigned char)backtrace(frames[i], MAX_DEPTH);
    n_samples = i + 1;
}

__attribute__((constructor)) static void prof_start(void)
{
    /* The first backtrace() loads the unwinder (dlopen + malloc): do that
     * here, not inside a signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void prof_dump(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);

    const char *path = getenv("PROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    if (!out)
        return;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[1024];
        while (fgets(line, sizeof line, maps))
            fprintf(out, "map %s", line);
        fclose(maps);
    }
    fprintf(out, "dropped %d\n", dropped);
    for (int i = 0; i < n_samples; i++) {
        fputs("stack", out);
        for (int d = 0; d < depth[i]; d++)
            fprintf(out, " %p", frames[i][d]);
        fputc('\n', out);
    }
    fclose(out);
}
