"""Verification engine for the factorization (2k+1)(2k) zeta({2}^k)
= zeta({2}^{k-1}) 6 zeta(2), the infinite product behind it, and the pi
constants the product generates. Finite identities are checked in exact
rational arithmetic; limits carry certified error brackets."""
