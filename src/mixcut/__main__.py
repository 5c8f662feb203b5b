"""``python -m mixcut``: the same entry point as the ``mixcut`` console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
