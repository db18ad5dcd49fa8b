"""``python -m quatpoly ...`` runs the command-line tool."""

from .cli import entry

if __name__ == "__main__":
    entry()
