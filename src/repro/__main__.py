"""``python -m repro`` — umbrella command-line entry point.

``serve`` goes straight to :mod:`repro.netd.cli`, so a served node never
imports the policy toolchain; every other command is
:mod:`repro.lang.cli`'s (policy tooling ``lint`` and its alias
``check``, ``format``, ``graph``, ``reach``, ``verify`` and the
observability demos ``trace``, ``metrics``).
"""

import sys

if __name__ == "__main__":
    if sys.argv[1:2] == ["serve"]:
        from .netd.cli import main
    else:
        from .lang.cli import main
    sys.exit(main())
