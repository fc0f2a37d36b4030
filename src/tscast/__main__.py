"""``python -m tscast <command>`` runs the command line without the installed script."""

from .cli import main

__all__ = ["main"]

if __name__ == "__main__":
    main()
