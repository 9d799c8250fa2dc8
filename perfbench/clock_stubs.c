/* Monotonic nanosecond clock for the benchmark's spans and slice timers.
   The native entry point takes and returns untagged values and never
   allocates, so reading the clock on a hot path costs one vDSO call. */

#include <time.h>
#include <caml/mlvalues.h>

intnat perfbench_now_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns(value unit)
{
  return Val_long(perfbench_now_ns_unboxed(unit));
}

/* Cycle counter for span timing: on x86-64 the unserialised time-stamp
   counter, a few nanoseconds cheaper per read than the vDSO clock; the
   benchmark converts ticks to seconds with a rate it measures against
   CLOCK_MONOTONIC. Elsewhere it falls back to the monotonic clock
   (one tick = 1 ns). */

#if defined(__x86_64__)
#include <x86intrin.h>
intnat perfbench_ticks_unboxed(value unit)
{
  (void)unit;
  return (intnat)__rdtsc();
}
#else
intnat perfbench_ticks_unboxed(value unit)
{
  return perfbench_now_ns_unboxed(unit);
}
#endif

value perfbench_ticks(value unit)
{
  return Val_long(perfbench_ticks_unboxed(unit));
}
