"""Run one command with its stdout sent to a file, print its peak RSS, and
fail when that peak passes a budget.

    python .github/rss_budget.py BUDGET_MB OUT_FILE -- COMMAND...

The peak is ``ru_maxrss`` of the waited-for child (``RUSAGE_CHILDREN``,
kB on Linux).  The exit code is the command's own, or 1 when it exits 0
past the budget; a budget of 0 only prints the peak.
"""

import resource
import subprocess
import sys

budget, out, sep, cmd = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
if sep != "--" or not cmd:
    sys.exit(__doc__)
with open(out, "w") as fh:
    code = subprocess.call(cmd, stdout=fh)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{' '.join(cmd)}: peak RSS {peak:.0f} MB" + (f", budget {budget:.0f} MB" if budget else ""))
if code == 0 and 0 < budget < peak:
    print("peak RSS over budget", file=sys.stderr)
    code = 1
sys.exit(code)
