"""``python -m wittcoh``: the same command line as the ``wittcoh`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
