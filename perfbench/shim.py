"""Run one wakimoto CLI command in this fresh interpreter, as `wakimoto ARGV`
would, and report on stderr what the benchmark measures from inside it.

    python3 perfbench/shim.py TRACE ARGV...

TRACE is 0 or 1.  The command's stdout and exit code pass through unchanged.
The last line of stderr is REPORT_PREFIX followed by a JSON object: the
CLOCK_MONOTONIC time at which argv was parsed, the process's peak RSS and,
when TRACE is 1, the span summary of `spans.Tracer`.
"""

import json
import resource
import sys
import time

REPORT_PREFIX = "@perfbench "


def main():
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    from wakimoto import cli

    tracer = None
    if trace:
        import spans
        tracer = spans.install()

    marks = {}
    build_parser = cli.build_parser

    def timed_build_parser():
        # Set-up ends when main() has parsed argv with the real parser.
        ap = build_parser()
        parse_args = ap.parse_args

        def timed_parse_args(*args, **kwargs):
            ns = parse_args(*args, **kwargs)
            marks["setup_end"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            return ns

        ap.parse_args = timed_parse_args
        return ap

    cli.build_parser = timed_build_parser
    code = cli.main(argv)
    sys.stdout.flush()
    report = {"setup_end": marks.get("setup_end"),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": tracer.summary() if tracer else None}
    sys.stderr.write("\n" + REPORT_PREFIX + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
