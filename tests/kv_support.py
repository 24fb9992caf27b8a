"""Helpers shared by the kv-plane tests."""

from repro.kv.cluster import drive


def settle(cluster):
    """Run ``cluster`` until every session is idle, submitting nothing;
    returns the drive statistics."""
    return drive(cluster, ())
