"""Oracle for :class:`repro.events.broker.EventBroker`."""

from typing import List

from repro.events import Event, EventBroker, Subscription


class ScanBroker(EventBroker):
    """Dispatch by scanning every subscription on the topic in
    registration order and checking its whole filter — no index."""

    def _candidates(self, event: Event) -> List[Subscription]:
        return [sub for sub in self._subs.get(event.topic, {}).values()
                if sub.matches(event)]
