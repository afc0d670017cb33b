"""Prove the theta-constant identities in exact arithmetic.

Every closed-form weight used by the verification harness rests on a small
set of series identities between eta, the phi triple, and level-theta
constants.  This demo proves each one coefficient-by-coefficient over the
Gaussian rationals (no floating point anywhere), then prints the first few
rows of one expansion so you can see what the series objects look like.

Run:  python3 demos/prove_theta_constants.py
"""

from elliptic_selberg.qseries import expand_builtin, series_rows
from elliptic_selberg.verify import battery


def main():
    print("exact series proofs (Gaussian-rational coefficients)")
    print("-" * 60)
    for check in battery()["series"]:
        passed, detail = check.run()
        status = "ok " if passed else "FAIL"
        print(f"  [{status}] {check.name.removeprefix('series:'):38s} "
              f"({detail})")
        assert passed

    print()
    print("first rows of the eta expansion (pentagonal-number sparsity):")
    for q_exp, x_exp, re, im in series_rows(expand_builtin("eta", 8))[:6]:
        print(f"  q^{q_exp!s:>6}  x^{x_exp!s:<3}  {re!s:>3} {im!s:>3}")


if __name__ == "__main__":
    main()
