"""``python -m bergeham ...`` runs the ``bergeham`` command."""

from .cli import main

if __name__ == "__main__":
    main()
