"""One realspectra CLI call under spans, for the traced `cli` pass.

    python3 perfbench/cli_entry.py SPANS_FILE ARGV...

Behaves like the `realspectra` console script (same argv, stdout, exit
code and cache key) and writes the call's span summary to SPANS_FILE.
"""

import json
import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from realspectra import cli
    code = cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["caches"] = spans.cache_stats()
    with open(out_path, "w") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
