"""Outside-in benchmark of the repro broker and the full stack.

Run ``python3 bench/run.py``; see ``bench/README.md``.
"""
