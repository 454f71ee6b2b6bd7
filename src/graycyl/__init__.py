"""Exact lax-Gray-cylinder computations over cells of the Theta category."""

from .dac import (DAComplex, DAMorphism, check_basis, lambda_cell,
                  lambda_globe, lambda_map, sign_split, tensor)
from .gray import (gray_cylinder, hyperface_cylinder, lax_shuffle_diagram,
                   verify_globular_preservation, verify_gluing)
from .nu import NuView, enumerate_cells, nu_boundary, nu_identity
from .pr import pr_count, pr_hom, pr_objects
from .span import split_map, verify_span
from .theta import (ThetaCell, ThetaMap, cell, globe, globular_sum, hyperfaces,
                    parse_cell)

__version__ = "0.1.0"
