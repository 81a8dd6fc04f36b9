"""`python -m graphlift`: the command line, as the installed `graphlift` script."""

from .cli import main

if __name__ == "__main__":
    main()
