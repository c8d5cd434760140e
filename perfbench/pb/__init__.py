"""Support code for the end-to-end benchmark in ``perfbench/run.py``.

Nothing here is part of the ``repro`` package: the benchmark drives
``repro`` from outside through its public functions and records its own
spans around each call into a layer.
"""
