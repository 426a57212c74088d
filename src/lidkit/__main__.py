"""``python -m lidkit``: the same entry point as the ``lidkit`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
