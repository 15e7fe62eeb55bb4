import os
import sys

from .cli import main

try:
    code = main()
    sys.stdout.flush()
except BrokenPipeError:  # the reader closed stdout: drop the rest, exit 128 + SIGPIPE
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    code = 141
sys.exit(code)
