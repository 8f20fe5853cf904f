"""The ``diobox`` process entry: ``python -m diobox`` and the ``diobox``
console script both call ``run``.

The objects made by importing the command line live until the process
exits, so ``run`` keeps the cyclic garbage collector off while it imports
them and then freezes them (``gc.freeze``): no collection runs during
start-up, and every later one, at exit, between the files of a command or
in a forked ``--batch`` worker, skips that heap. A collection in a worker
thus leaves those pages shared with the parent instead of writing to them.
``cli.main`` itself never touches the collector, because the tests and the
benchmark call it in long-lived processes.
"""

import gc
import sys


def run() -> int:
    gc.disable()
    from .cli import main

    gc.freeze()
    gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
