"""``python -m hcchroma``: the command line without an installed script."""

from .cli import entry

if __name__ == "__main__":
    entry()
