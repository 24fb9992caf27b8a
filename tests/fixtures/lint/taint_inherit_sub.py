"""Fixture: registers a handler its base class defines in
``taint_inherit_base`` (never imported)."""

from taint_inherit_base import RelayBase


class RelayServer(RelayBase):
    def __init__(self):
        self.on("relay", self._on_relay)
