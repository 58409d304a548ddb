"""Entry point for ``python -m littlewood``."""

from .cli import main

if __name__ == "__main__":
    main()
