"""rieszlab: certified numerics for Riesz polarization and covering.

Modules: ``geometry`` (domains and certified meshes), ``kernels`` (Riesz
kernel sums), ``polarization`` (inner minimization and the polarization
search), ``covering`` (covering radii, best coverings, weak separation),
``asymptotics`` (large-N and large-s extrapolation) and ``lattices``
(lattice covering densities).
"""
