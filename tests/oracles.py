"""
Slow definition-level routes that the tests compare the library with.

The staircase route computes a Schubert polynomial from the top of S_n
down: walk from w up to the longest element along first ascents, then
apply the divided differences of that walk, last step first, to the
polynomial of the longest element.  That top polynomial is x^delta for
the single form and the product of (x_i - y_j) over i + j <= n for the
double form.
"""

from stanley.permutations import longest_element, multiply_simple
from stanley.polynomials import SparsePoly, divided_difference


def staircase(n):
    """x^delta = x_1^(n-1) x_2^(n-2) ... x_(n-1)."""
    return SparsePoly.monomial(tuple(range(n - 1, 0, -1)))


def double_staircase(n):
    """The product of (x_i - y_j) over i + j <= n."""
    f = SparsePoly.constant(1)
    for i in range(1, n):
        for j in range(1, n + 1 - i):
            f = f * (SparsePoly.x(i) - SparsePoly.y(j))
    return f


def schubert_by_staircase(w, top):
    """Divided differences carrying top, the polynomial of the longest
    element of S_n, down to w along first ascents."""
    n = len(w)
    chain = []
    v = w
    while v != longest_element(n):
        i = next(i for i in range(1, n) if v[i - 1] < v[i])
        chain.append(i)
        v = multiply_simple(v, i)
    f = top
    for i in reversed(chain):
        f = divided_difference(f, i)
    return f
