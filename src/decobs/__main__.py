import sys

from .cli import command

sys.exit(command())
