"""Check the ten closed-form block evaluations by quadrature.

For each identity the left side is one or two regularized simplex
integrals (computed by graded-mesh quadrature with endpoint circles) and
the right side is a product of eta/phi weights, a power of the odd theta,
a level-theta combination, and an exact normalization constant built
from gamma functions.  Nothing is fitted: every quantity is computed
independently and the two sides are compared on a lambda grid.

Run:  python3 demos/verify_identities.py          (about a second)
      python3 demos/verify_identities.py --full   (adds the second tau)
"""

import sys
import time

from elliptic_selberg.specfun import ModularPoint
from elliptic_selberg.verify import DEFAULT_TAU, SECONDARY_TAU, verify_identity


def main(full: bool):
    taus = (DEFAULT_TAU, SECONDARY_TAU) if full else (DEFAULT_TAU,)
    overall = True
    for tau in taus:
        print(f"tau = {tau}")
        print(f"  {'identity':>10s} {'kappa':>5s} {'rel_err':>10s} "
              f"{'quad_agr':>10s} {'time':>6s}  status")
        for ident in range(1, 11):
            t0 = time.time()
            rep = verify_identity(ident, 1, pt=ModularPoint(tau))
            dt = time.time() - t0
            status = "pass" if rep.passed else "FAIL"
            overall &= rep.passed
            print(f"  {rep.name:>10s} {rep.inputs['kappa']:5d} "
                  f"{rep.rel_err:10.2e} {rep.quad_agreement:10.2e} "
                  f"{dt:5.1f}s  {status}")
    print()
    print("all identities verified" if overall else "SOME IDENTITIES FAILED")
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main("--full" in sys.argv[1:]))
