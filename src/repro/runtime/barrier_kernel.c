/* The superstep barrier of repro.runtime.process: the pool's children
 * meet here between the compute and the two exchange phases of a fused
 * superstep, over one anonymous shared page mapped before the fork.
 *
 * words[0] is the abort word; words[1 + w] is the last barrier epoch
 * worker w arrived at.  barrier_wait stores epoch into its own slot with
 * release ordering, then loads every slot and the abort word with
 * acquire ordering until each worker has reached epoch: the release /
 * acquire pair is what makes a sibling's phase writes visible after the
 * barrier on weakly ordered CPUs too.  Epochs only grow, so a slot that
 * is already past epoch counts as arrived.
 *
 * A waiting worker spins and yields its CPU on each pass (so a sibling
 * on the same CPU runs), and after SPIN_NS backs off to SLEEP_NS sleeps.
 * It returns BARRIER_PASSED, BARRIER_ABORTED once the abort word is set,
 * BARRIER_TIMED_OUT once timeout_ns have passed (*missing then receives
 * the lowest id that had not arrived), or, while backing off,
 * BARRIER_ORPHANED once its parent is no longer the process `parent`:
 * the coordinator died and can set no abort word.
 */
#define _POSIX_C_SOURCE 200809L

#include <sched.h>
#include <stdint.h>
#include <time.h>
#include <unistd.h>

#define BARRIER_PASSED 0
#define BARRIER_ABORTED 1
#define BARRIER_TIMED_OUT 2
#define BARRIER_ORPHANED 3

#define SPIN_NS 1000000
#define SLEEP_NS 50000

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* The lowest worker id whose slot is below epoch, or parties if none. */
static int64_t first_missing(uint64_t *words, int64_t parties, uint64_t epoch)
{
    for (int64_t v = 0; v < parties; v++) {
        if (__atomic_load_n(&words[1 + v], __ATOMIC_ACQUIRE) < epoch)
            return v;
    }
    return parties;
}

int barrier_wait(uint64_t *words, int64_t parties, int64_t worker,
                 uint64_t epoch, int64_t timeout_ns, int64_t parent,
                 int64_t *missing)
{
    const struct timespec pause = {0, SLEEP_NS};
    int64_t start = now_ns();
    __atomic_store_n(&words[1 + worker], epoch, __ATOMIC_RELEASE);
    for (;;) {
        int64_t waiting_on = first_missing(words, parties, epoch);
        if (waiting_on == parties)
            return BARRIER_PASSED;
        if (__atomic_load_n(&words[0], __ATOMIC_ACQUIRE))
            return BARRIER_ABORTED;
        int64_t waited = now_ns() - start;
        if (waited >= timeout_ns) {
            *missing = waiting_on;
            return BARRIER_TIMED_OUT;
        }
        if (waited < SPIN_NS) {
            sched_yield();
        } else {
            if ((int64_t)getppid() != parent)
                return BARRIER_ORPHANED;
            nanosleep(&pause, NULL);
        }
    }
}

void barrier_abort(uint64_t *words)
{
    __atomic_store_n(&words[0], 1, __ATOMIC_RELEASE);
}
