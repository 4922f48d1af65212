"""`python -m fgdict`: the `fgdict` command, run from a checkout."""

from .cli import main

if __name__ == "__main__":
    main()
