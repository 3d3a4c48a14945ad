"""Command line entry point: ``python3 -m supermoyal <command> [options]``."""

from .cli import main

if __name__ == "__main__":
    main()
