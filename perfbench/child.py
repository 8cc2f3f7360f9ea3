"""Run one ``hcchroma`` invocation in this fresh interpreter; print its peak
resident memory in kB as the last line of standard output.

    python3 -I perfbench/child.py <src directory> <hcchroma arguments...>

The peak is VmHWM of /proc/self/status: the high-water mark of this
process's own address space since exec.  ``ru_maxrss`` would not do, since
Linux carries the parent's peak over into it across fork and exec.
"""

import sys

sys.path.insert(0, sys.argv[1])
import hcchroma.cli as cli  # noqa: E402

rc = cli.main(sys.argv[2:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(rc)
