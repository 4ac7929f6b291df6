import sys

from .cli import run

sys.exit(run(sys.argv[1:]))
