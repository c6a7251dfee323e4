"""Record the expected stdout of the workloads' commands that have no
built-in oracle, into expected/<label>.json.

    python3 perfbench/record_expected.py

Run from the root of a checkout, only when the CLI's output is meant to
change; the benchmark fails any command whose output differs from these.
"""

import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for name in workloads.NAMES:
        for cmd in workloads.build(name, 0):
            if cmd.check != "expected":
                continue
            out = subprocess.run([sys.executable, "-m", "wakimoto.cli",
                                  *cmd.argv], env=env, check=True,
                                 stdout=subprocess.PIPE).stdout
            with open(os.path.join(HERE, "expected", cmd.label + ".json"),
                      "wb") as fh:
                fh.write(out)
            print("%s: %d bytes  (%s)" % (cmd.label, len(out), cmd))
    return 0


if __name__ == "__main__":
    sys.exit(main())
