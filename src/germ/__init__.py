"""Classification of superattracting germs over fields of characteristic p > 0.

Submodules:

- fields      exact F_{p^k} arithmetic, Frobenius roots, polynomial roots,
              additive equations as linear systems over F_p
- series      truncated univariate power series and the Frobenius twist
- invariants  conjugacy invariants (m, d, e, r) and fiber combinatorics
- normalizer  the coefficient recursion: normal forms and witnesses
- analytic    t-adic coefficients and the growth certificate
- multidim    monomial conjugacy in several variables
- cli         batch front-end (`germ` command)
"""

from .fields import field_create, poly_roots
from .invariants import profile
from .normalizer import normal_form, verify_conjugacy
from .series import Germ1D, Series

__version__ = "0.1.0"

__all__ = ["field_create", "poly_roots", "profile", "normal_form",
           "verify_conjugacy", "Germ1D", "Series", "__version__"]
