"""Micro-batch ingestion gateway for a segmented column store.

The package wires an HTTP ingest listener into a row pipeline (a
single-loop FIFO of rows already routed to their segments; the
lock-free queue it reproduces is kept as the reference) that is
drained by a pool of transaction slots.  A policy
driven scheduler keeps the pool close to the smallest size that still
hides transaction start and commit latency behind the collection
interval.  A deterministic discrete-event simulator shares the
scheduler's decision code so policy behaviour can be studied offline.
"""

__version__ = "0.1.0"
