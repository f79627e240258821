"""One benchmark op: a fresh interpreter that runs `sl` once and reports.

Usage: python3 bench/child.py TRACE ARGS...

The child imports `slc.cli`, the set-up every `sl` invocation pays, and
notes the monotonic clock when the import is done. It then calls
`slc.cli.main(ARGS)` with stdout and stderr captured, and prints one JSON
object: the exit code, the captured output, that import time stamp, and the
spans of `spans.py`. TRACE=1 wraps every layer binding; TRACE=0 only the
four phases `sl` runs.
"""

import sys
import time


def main() -> int:
    from slc import cli

    imported = time.perf_counter()
    import io
    import json
    import traceback

    import spans

    recorder = spans.install(
        {name.removeprefix("slc."): m for name, m in sys.modules.items() if name.startswith("slc.")},
        traced=sys.argv[1] == "1",
    )
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    crash = None
    try:
        code = cli.main(sys.argv[2:])
    except Exception:  # a Python exception escaping `sl` is a failed op
        code, crash = -1, traceback.format_exc()
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    report = {
        "imported": imported,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "crash": crash,
        "layers": recorder.layers(),
        "counts": recorder.counts,
    }
    sys.stdout.write(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
