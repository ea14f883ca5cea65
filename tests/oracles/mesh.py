"""The per-pair mesh-ping draw, one fresh ``default_rng`` per pair.

Before the calibration plane, the archive was filled lazily one pair at
a time: seed ``np.random.default_rng((lo_id, hi_id))`` and take
``Network.min_rtt_ms`` outside any measurement epoch.  The batched draw
(:func:`repro.netsim.meshdraw.mesh_one_way_ms`) must reproduce these
values bit for bit.
"""

import numpy as np


def lazy_one_way_ms(network, a, b, samples):
    """Half the minimum of ``samples`` RTT samples from ``a`` to ``b``.

    The round-trip floor is computed in the direction given, as the
    first lazy caller of a pair did; the stream key is canonical.
    """
    key = (min(a.host_id, b.host_id), max(a.host_id, b.host_id))
    with network.fault_free():
        rtt = network.min_rtt_ms(a, b, n=samples,
                                 rng=np.random.default_rng(key))
    return rtt / 2.0


def lazy_archive_row(atlas, landmark):
    """A landmark's archive row by the oracle, canonical direction
    (higher host id first); NaN where the anchor is the landmark."""
    row = np.full(len(atlas.anchors), np.nan)
    for col, anchor in enumerate(atlas.anchors):
        if anchor.host.host_id == landmark.host.host_id:
            continue
        high, low = sorted((landmark.host, anchor.host),
                           key=lambda host: host.host_id, reverse=True)
        row[col] = lazy_one_way_ms(atlas.network, high, low,
                                   atlas.CALIBRATION_SAMPLES)
    return row
