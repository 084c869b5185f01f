"""Shared test helpers."""

import pytest

from toricarr.subsys import enumerate_complete
from toricarr.weyl import WeylGroup


def _span_orbits(rs, d):
    """W-orbits of the span route's K_d, found by walking the simple reflections.

    Each orbit is a tuple of Subsystems sorted by roots; orbits are ordered
    by their first member.  Independent of subsys.parabolic_classes: it
    starts from every member of enumerate_complete and acts on full root
    indices.
    """
    members = {m.roots: m for m in enumerate_complete(rs, d).members}
    gens = WeylGroup(rs).gens
    orbits = []
    seen = set()
    for roots in members:
        if roots in seen:
            continue
        orbit = {roots}
        queue = [roots]
        while queue:
            x = queue.pop()
            for g in gens:
                img = tuple(sorted(g[i] for i in x))
                if img not in orbit:
                    assert img in members, "W-image left K_d"
                    orbit.add(img)
                    queue.append(img)
        seen |= orbit
        orbits.append(tuple(members[r] for r in sorted(orbit)))
    return sorted(orbits, key=lambda o: o[0].roots)


@pytest.fixture
def span_orbits():
    return _span_orbits
