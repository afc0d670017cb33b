"""Tour of the heat-equation structure behind the closed forms.

Three related facts, each checked numerically:

1. every closed-form right-hand side solves the same heat equation
   2*pi*i*kappa du/dtau = d^2u/dlambda^2 + p(p+1) rho'(lambda) u
   that the block integrals satisfy (residuals at machine precision,
   using exact series derivatives);

2. a block computed purely by quadrature satisfies it too, which is
   checked with Richardson finite differences -- quadrature and
   closed forms never share code, so this is an independent loop;

3. at the degeneration points lambda -> 0 and lambda -> tau the heat
   equation collapses to a first-order ODE in tau that pins down the
   scalar weight in each closed form; all four weight recipes solve it.

Run:  python3 demos/heat_equation_tour.py
"""

from elliptic_selberg.blocks import BlockIndex
from elliptic_selberg.specfun import ModularPoint
from elliptic_selberg.transforms import BlockFunction
from elliptic_selberg.verify import DEFAULT_TAU, battery, kzb_residual


def _run_checks(prefix):
    for check in battery()["residuals"]:
        if check.name.startswith(prefix):
            passed, detail = check.run()
            status = "ok " if passed else "FAIL"
            print(f"   [{status}] {check.name.removeprefix(prefix):34s} "
                  f"{detail}")


def main():
    print("1. closed forms, exact derivatives")
    _run_checks("heat-residual:")

    print()
    print("2. a quadrature block, finite differences")
    f = BlockFunction.from_block(BlockIndex(1, 5, 2))
    resid = kzb_residual(f, 0.31, ModularPoint(DEFAULT_TAU),
                         mode="finite_difference", h=5e-3)
    print(f"   u(p=1, kappa=5, n=2):  residual {resid:.1e}")

    print()
    print("3. scalar-weight ODE at the two degeneration points")
    _run_checks("ode-residual:")


if __name__ == "__main__":
    main()
