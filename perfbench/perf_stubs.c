/* CPU affinity, which the OCaml Unix library does not bind. */

#define _GNU_SOURCE
#ifdef __linux__
#include <sched.h>
#endif
#include <caml/mlvalues.h>

/* Restrict the calling thread, and the processes it forks later, to
   the highest-numbered CPU it may run on.  A no-op where CPU affinity
   is not available. */
value perfbench_pin_one_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
      if (CPU_ISSET(cpu, &set)) {
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof set, &set);
        break;
      }
    }
  }
#endif
  return Val_unit;
}
