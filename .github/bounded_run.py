"""Run the echosim CLI in this process and fail past a resident-memory bound.

    python .github/bounded_run.py PEAK_MIB WRITER_MIB CLI_ARG...

Prints this process's peak RSS and that of its largest child (the run's
writer process), and exits with the CLI's code, or with 1 if the first tops
PEAK_MIB or the second WRITER_MIB; a bound of ``inf`` never fails.
"""

import resource
import sys

from echosim.cli import main

peak_bound, writer_bound, *args = sys.argv[1:]
code = main(args)
peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
writer_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {peak_mib:.0f} MiB, writer process {writer_mib:.0f} MiB")
sys.exit(code or peak_mib > float(peak_bound) or writer_mib > float(writer_bound))
