"""Exact gradings of restricted Cartan-type Lie algebras over GF(p).

The kernel constructs the truncated polynomial algebra, its derivation
algebra, and the volume-form and Hamiltonian flavors; builds and verifies
abelian-group gradings of them; and classifies gradings up to automorphism
with explicit witnesses for every positive decision.
"""

from .abgroup import (AbGroup, GElem, PSubgroup, basis_with_product, coset_eq,
                      coset_rep, p_independent, subgroup_key)
from .autos import (AutO, basis_change_auto, normalize_omega_S,
                    permutation_auto, push_grading, random_auto,
                    random_graded_auto, shift_auto, volume_factor)
from .classify import (FLAVORS, OPEN_IN_PAPER, GradingInvariants,
                       canonical_key, enumerate_fine, invariants_of, iso_decide,
                       o_grading_from_w, orbit_probe, recognize_O, recognize_S)
from .errors import (AdmissibilityError, AxisRangeError, CartanGradeError,
                     ConfigError, ConfigMismatchError, DimensionError,
                     GroupMismatchError, InternalError, NoSuchBasisError,
                     ObstructionError, ParseError, ValidityError)
from .forms import (KForm, algebra_rows, differential, lie_derivative,
                    omega_symplectic, omega_volume)
from .gfp import Config
from .gradings import (Grading, GradingReport, fine_grading,
                       grade_O_construct, grade_S_construct, induce_W,
                       induce_subalgebra, verify_grading)
from .oalg import OElem, z_monomial
from .witt import (WElem, closed_form_bracket, closed_form_bracket_reduced,
                   d_ij, d_ij_z, w_basis)

__version__ = "0.1.0"
