"""Walk the three worked examples end to end and print every artifact.

Run from the repository root:

    python3 scripts/worked_examples.py
"""

from polysaddle import bipoly as bp
from polysaddle.cz_check import cz_report
from polysaddle.field_ops import (
    FactoredIntegral,
    construct_field,
    expand,
    is_hamiltonian,
    reduce_field,
)
from polysaddle.linearize import linearize
from polysaddle.remarkable import analyze


def fi(*pairs):
    return FactoredIntegral(tuple((bp.parse(s), k) for s, k in pairs))


EXAMPLES = [
    ("product saddle", fi(("x", 1), ("y", 1))),
    ("cusp level", fi(("x", 2), ("y", 1))),
    ("twin parabolas", fi(("y - x^2", 1), ("y + x^2", 2))),
]


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    for name, F in EXAMPLES:
        banner(f"{name}: H = {F}")
        X0 = construct_field(F)
        X, g = reduce_field(X0)
        print(f"constructed field   P = {bp.to_string(X0.P)}")
        print(f"                    Q = {bp.to_string(X0.Q)}")
        if not bp.is_const(g):
            print(f"common factor       {bp.to_string(g)} (reduced away)")
        print(f"degree m            {X.degree}")

        H = is_hamiltonian(X)
        if H is not None:
            print(f"Hamiltonian         H' = {bp.to_string(H)}")
        else:
            a = analyze(F)
            print(f"integrating factor  R = {bp.to_string(a.R)} (deg {a.d})")
            print(f"inverse factor      V = {bp.to_string(a.V)}")
            print(f"critical values     {[str(c) for c in a.critical_values]}"
                  f"{'' if a.residual is None else ' plus a nonrational residual'}")
            print(f"deg V               {bp.total_degree(a.V)}"
                  f" = ({a.s}-1)*{a.d} + ({X.degree}+1)*{a.s}")
            print(f"deg H               {bp.total_degree(expand(F))}"
                  f" = {X.degree}+1+{a.d}")

        rep = cz_report(F)
        for label, r in [("(i) nonsingular", rep.condition_i),
                         ("(ii) leading squarefree", rep.condition_ii),
                         ("(iii) transversal", rep.condition_iii),
                         ("(iv) leading coprime", rep.condition_iv)]:
            extra = "" if r.status == "Holds" else f"  [{r.reason}]"
            print(f"CZ {label:<24}{r.status}{extra}")

        if F.p >= 2:
            cert = linearize(F, X)
            print(f"linearization       u = {bp.to_string(cert.u_expr)}")
            print(f"                    v = {bp.to_string(cert.v_expr)}")
            print(f"                    D = {bp.to_string(cert.D)}, "
                  f"G = {bp.to_string(cert.G)}")
            print(f"                    {cert.time_change}")
            print("                    all four identities verified exactly")


if __name__ == "__main__":
    main()
