"""Generic splitting: the conic, the map to W(Q(t)), and residues.

Run with: python3 demos/generic_splitting_tour.py
"""

from quatwitt import polys as P
from quatwitt.fields import Place
from quatwitt.funcfield import (
    conic_parametrize,
    ff_form,
    kernel_generator,
    kt_witt_equal,
    psi_split,
    residue,
)
from quatwitt.mixed import mixed
from quatwitt.quadforms import qf, witt_class
from quatwitt.quaternions import QuatAlgebra


def main():
    A = QuatAlgebra(1, 1)
    print("== parametrizing the splitting conic ==")
    conic = conic_parametrize(A)
    print(f"For the algebra ({A.a}, {A.b}) the conic "
          f"-a x^2 - b y^2 = -ab has the rational parametrization")
    print(f"  x(t) = {conic.x_t}")
    print(f"  y(t) = {conic.y_t}")

    print()
    print("== the map psi into W(Q(t)) ==")
    img = psi_split(mixed(A, odd_entries=(A.ij(),)), conic)
    print(f"  psi(<ij>) = {img}")
    target = ff_form([2, 2 * A.a * A.b])
    print(f"  equals <2><<(ij)^2>> in W(Q(t)): {kt_witt_equal(img, target)}")

    gen = kernel_generator(A)
    print(f"  the kernel generator {gen} maps to "
          f"{'zero' if kt_witt_equal(psi_split(gen, conic), ff_form([])) else 'nonzero'}")

    print()
    print("== residues over Q(t) ==")
    q = ff_form([[0, 1], 1])  # <t, 1>
    for label, place in [("t", Place("poly", pi=P.poly([0, 1]))),
                         ("t-1", Place("poly", pi=P.poly([-1, 1]))),
                         ("infinity", Place("infinite"))]:
        out = residue(q, place)
        print(f"  residues of <t, 1> at {label}: "
              f"first = {out.even}, second = {out.odd}")
    print("The first residue never depends on the uniformizer; the second")
    print("one detects ramification and vanishes at all but finitely many")
    print("places.")


if __name__ == "__main__":
    main()
