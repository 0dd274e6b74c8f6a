"""Micro-batch ingestion gateway for a segmented column store.

The package wires an HTTP ingest listener into a row pipeline (a
single-loop FIFO of validated rows in the order they were posted; the
lock-free queue it reproduces is kept as the reference) that is
drained by a pool of transaction slots; the slot that sends routes
the rows it drains to their segments, once per drain.  A policy
driven scheduler keeps the pool close to the smallest size that still
hides transaction start and commit latency behind the collection
interval.  A deterministic discrete-event simulator shares the
scheduler's decision code so policy behaviour can be studied offline.
"""

__version__ = "0.1.0"
