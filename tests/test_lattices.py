"""Lattice covering radii and densities against closed forms.

Densities of the hexagonal lattice, Z^2 and A_3* are the classical
values (Conway and Sloane, Sphere Packings, Lattices and Groups, ch. 2);
the covering radius of A_d* is sqrt(d(d+2)/(12(d+1))).
"""

import math

import pytest

from rieszlab.lattices import lattice_density, named_lattice


@pytest.mark.parametrize("name,d,density", [
    ("hex", None, 2.0 * math.pi / math.sqrt(27.0)),
    ("Z", 2, math.pi / 2.0),
    ("A_dual", 3, 5.0 * math.sqrt(5.0) * math.pi / 24.0),
])
def test_density_closed_form(name, d, density):
    assert abs(lattice_density(named_lattice(name, d)) - density) <= 1e-12


@pytest.mark.parametrize("d", [4, 5])
def test_a_dual_radius_bracket_holds_closed_form(d):
    exact = math.sqrt(d * (d + 2) / (12.0 * (d + 1)))
    lo, hi = named_lattice("A_dual", d).radius_bracket
    assert lo <= exact <= hi
    assert exact - lo <= 1e-8 * exact
