"""Compatibility shim for callers that still pass ``executor=``.

Shard updates always run serially in the calling thread:
:meth:`~repro.core.sharded.ShardedPipeline.update` walks the dirty
shards itself, because paper-scale shard updates are too small to pay
for a thread or process hand-off (measurements in
``docs/ARCHITECTURE.md``).  The only executor name is ``"serial"``:

    >>> from repro.core.executors import SerialExecutor, make_executor
    >>> executor = make_executor("serial")
    >>> isinstance(executor, SerialExecutor)
    True
    >>> executor.close()
    >>> make_executor("thread")
    Traceback (most recent call last):
    ...
    ValueError: unknown executor 'thread'; shards update serially, use 'serial'
"""

from __future__ import annotations


class SerialExecutor:
    """Marker for the only shard execution strategy: serial, in-thread."""

    name = "serial"

    def close(self) -> None:
        """Nothing to release."""


def make_executor(name: str) -> SerialExecutor:
    """The executor called ``name``; only ``"serial"`` exists."""
    if name != SerialExecutor.name:
        raise ValueError(
            f"unknown executor {name!r}; shards update serially, use 'serial'"
        )
    return SerialExecutor()


def check_executor(executor: object) -> None:
    """Accept ``None`` or a :class:`SerialExecutor`; refuse anything else.

    ``executor=`` survives on :class:`~repro.core.sharded.ShardedPipeline`
    and :class:`~repro.fleet.pipeline.FleetPipeline` only so existing
    callers keep working; the value is checked and then ignored.
    """
    if executor is not None and not isinstance(executor, SerialExecutor):
        raise TypeError(
            "executor must be None or a SerialExecutor (shards update "
            f"serially), got {type(executor).__name__}"
        )
