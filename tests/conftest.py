import math
import random

import pytest

from mapproj import (
    CentralOnTangentPlane,
    EquidistantConic,
    Equirectangular,
    GeoCoord,
    Gnomonic,
    LambertAzimuthalEqualArea,
    LambertConformalConic,
    LambertCylindricalEqualArea,
    Mercator,
    Orthographic,
    Stereographic,
    Werner,
)
from mapproj.errors import DomainError


def all_family_instances():
    """One representative instance per projection family."""
    return [
        Equirectangular(phi0=math.radians(30), lon0=math.radians(10)),
        Stereographic(),
        Gnomonic(),
        CentralOnTangentPlane(),
        Orthographic(),
        Mercator(lon0=math.radians(-20)),
        EquidistantConic(math.radians(45), math.radians(60), lon0=math.radians(90)),
        LambertConformalConic(math.radians(45), math.radians(60)),
        LambertAzimuthalEqualArea(center=GeoCoord.from_degrees(20, -60)),
        LambertCylindricalEqualArea(phi0=math.radians(15)),
        Werner(lon0=math.radians(40)),
    ]


# central meridians (degrees) whose antimeridian, wrapped and wrapped back,
# misses lon0 by an ulp, so that a consumer deriving the meridian from
# cut_longitude put a sample on the tear on the other edge than the kernel;
# at 0 the round trip is exact, but a stencil one ulp east of the cut once
# took the wrong side
TEAR_LON0S = (-128.0, -0.5, 0.0, 37.0, 100.0)
# a cylinder, a conic and the cordiform map, as spec strings without lon0
TEAR_FAMILIES = ("mercator", "equidistant_conic lat1=45 lat2=60", "werner")


def sample_in_domain(proj, rng: random.Random, count: int):
    """Uniform-on-sphere samples restricted to the projection's domain."""
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count:
            raise AssertionError(f"domain sampling stalled for {proj.family}")
        c = GeoCoord(math.asin(rng.uniform(-1.0, 1.0)), rng.uniform(-math.pi, math.pi))
        try:
            proj.forward(c)
        except DomainError:
            continue
        out.append(c)
    return out


@pytest.fixture
def rng():
    return random.Random(20260809)
