"""A dedicated asyncio loop on a background thread.

Nothing under ``src/`` runs on this: ``repro serve`` owns its loop
through ``asyncio.run`` and :class:`~repro.netd.client.OasisClient` is a
plain blocking socket.  :class:`LoopThread` is the documented way to
host an asyncio :class:`~repro.netd.server.OasisServer` (or an
:class:`~repro.netd.events.EventChannel`) inside a synchronous program —
the test-suite's in-process nodes and ``benchmarks/harness.py`` do
exactly that: start the loop, ``run(server.start())``, then drive the
server over loopback with blocking clients from the main thread.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Coroutine, Optional

__all__ = ["LoopThread"]


class LoopThread:
    """An asyncio event loop running on a daemon thread.

    ``start()``/``stop()`` bracket the lifetime; :meth:`run` is the sync
    bridge (submit a coroutine, block the *calling* thread for the
    result) and :meth:`spawn` the fire-and-track variant for long-lived
    tasks such as event channels.
    """

    def __init__(self, name: str = "oasis-netd") -> None:
        self._name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise RuntimeError("LoopThread not started")
        return self._loop

    def start(self) -> "LoopThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._main, name=self._name,
                                        daemon=True)
        self._thread.start()
        self._started.wait()
        return self

    def _main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # Cancel whatever is still pending so `loop.close()` does not
            # complain about destroyed tasks.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def run(self, coro: Coroutine[Any, Any, Any],
            timeout: Optional[float] = None) -> Any:
        """Run ``coro`` on the loop; block the calling thread for the
        result.  Must not be called from the loop thread itself (that
        would be the self-deadlock this class exists to prevent)."""
        if threading.current_thread() is self._thread:
            raise RuntimeError(
                "LoopThread.run called from its own loop thread")
        future = asyncio.run_coroutine_threadsafe(coro, self.loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise

    def spawn(self, coro: Coroutine[Any, Any, Any]
              ) -> "concurrent.futures.Future[Any]":
        """Schedule ``coro`` without waiting; returns its future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def stop(self) -> None:
        if self._loop is None or self._thread is None:
            return
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5)
        self._loop = None
        self._thread = None
        self._started.clear()
