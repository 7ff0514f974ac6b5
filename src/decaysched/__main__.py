"""``python -m decaysched``: the same command line as ``decaysched``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
