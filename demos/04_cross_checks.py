"""Three independent routes to the same minima.

The minimal fixed-point count solves an integer minimization problem:
minimize the total count over non-negative profiles annihilating the
Chern constraint.  This package solves it three ways:

1. closed form: the gcd/r case analysis (bounds.closed_form_bound),
2. l-search: smallest l such that l*m/r is a sum of few enough squares
   (resp. l*(m-1)/r, triangular numbers) -- minimizer.minimize_even/odd,
3. lattice walk: list every profile inside a finite box that provably
   contains all feasible points below the cap, skipping only branches the
   constraint itself rules out (too many parts for a non-negative middle
   count, or a total W with 12W not divisible by d); no number theory is
   used -- enumerate_feasible.  `fpbounds verify` needs only which
   objectives occur, so it decides them over the same box without listing
   profiles: one reachability bitset per part count j holds the totals W
   reachable with at most j parts, and W = d*h/12 is an objective exactly
   when it is reachable with at most h // charge parts, since the middle
   count h - charge*parts then stays non-negative.  Again no number theory.

All three must agree, and every enumerated witness must expand to a full
profile with c1*c(n-1) = 0.
"""

from fpbounds import (
    chern_c1cn1,
    closed_form_bound,
    divisibility_modulus,
    enumerate_feasible,
    expand,
    minimize_even,
    minimize_odd,
    witness_full_profile,
)

print("n   closed  l-search  lattice   witness profile")
for n in range(2, 16):
    closed = closed_form_bound(n).value
    solver = minimize_even(n // 2) if n % 2 == 0 else minimize_odd(n // 2)
    lattice = enumerate_feasible(n, 48)[0].minimum
    profile = witness_full_profile(n)
    assert closed == solver.minimum == lattice == profile.total()
    assert chern_c1cn1(profile) == 0
    print(f"{n:>2}  {closed:>5}  {solver.minimum:>7}  {lattice:>7}   {list(profile.counts)}")

print()
print("every feasible objective is a multiple of the divisibility modulus:")
for n in (2, 3, 6, 9):
    mod = divisibility_modulus(n)
    objectives = sorted({o.minimum for o in enumerate_feasible(n, 48)})
    assert all(v % mod == 0 for v in objectives)
    print(f"  n = {n}: modulus {mod}, objectives {objectives}")

print()
print("witnesses found by the enumeration for n = 6, objective <= 8:")
for o in enumerate_feasible(6, 8):
    full = expand(o.witness)
    print(f"  objective {o.minimum}: reduced {list(o.witness.counts)} "
          f"-> full {list(full.counts)}, c1*c2 = {chern_c1cn1(full)}")
