"""Checks that must end in time, run in a fresh interpreter.

A runaway big-integer power is one C call that no signal interrupts, so a
check on inputs that once never returned runs as a child process, which
``subprocess`` kills at the time limit (the test then errors with
TimeoutExpired instead of hanging the suite).
"""

import os
import subprocess
import sys


def run_bounded(args, seconds: float = 30):
    """The completed ``python *args``, with this interpreter's import path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=seconds)
