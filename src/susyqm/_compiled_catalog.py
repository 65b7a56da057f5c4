"""Generated numpy code of the catalog records' expressions.  Do not edit.

SuperpotentialFamily.from_expression assembles w and w' from this code
and SIPRecord.r_function assembles R, so a command on a built-in record
loads no sympy.  Regenerate after changing a record's expression or R, or
after upgrading sympy, from the root of a source checkout:

    PYTHONPATH=src python -c "from susyqm.catalog import _render_compiled_catalog as r; open('src/susyqm/_compiled_catalog.py', 'w').write(r())"
"""

from .expressions import NumpyCode

#: Superpotential text -> (w, w') code.
FAMILIES = {
    'omega*x': (
        NumpyCode(
            text='omega*x',
            params=('omega',),
            source=(
                'def _fn(x, omega, _subterms):\n'
                '    return omega*x\n'
            ),
            broadcasts=True,
        ),
        NumpyCode(
            text='omega',
            params=('omega',),
            source=(
                'def _fn(x, omega, _subterms):\n'
                '    return omega\n'
            ),
            broadcasts=True,
        ),
    ),
    'A - exp(-x)': (
        NumpyCode(
            text='A - exp(-x)',
            params=('A',),
            source=(
                'def _fn(x, A, _subterms):\n'
                '    return A + _subterms[0]\n'
                'def _tabulate(x):\n'
                '    return (-exp(-x),)\n'
            ),
            broadcasts=True,
        ),
        NumpyCode(
            text='exp(-x)',
            params=('A',),
            source=(
                'def _fn(x, A, _subterms):\n'
                '    return _subterms[0]\n'
                'def _tabulate(x):\n'
                '    return (exp(-x),)\n'
            ),
            broadcasts=True,
        ),
    ),
    'A*tanh(x)': (
        NumpyCode(
            text='A*tanh(x)',
            params=('A',),
            source=(
                'def _fn(x, A, _subterms):\n'
                '    return A*_subterms[0]\n'
                'def _tabulate(x):\n'
                '    return (tanh(x),)\n'
            ),
            broadcasts=True,
        ),
        NumpyCode(
            text='A*(1 - tanh(x)**2)',
            params=('A',),
            source=(
                'def _fn(x, A, _subterms):\n'
                '    return A*(_subterms[0])\n'
                'def _tabulate(x):\n'
                '    return (1 - tanh(x)**2,)\n'
            ),
            broadcasts=True,
        ),
    ),
    'q/(2*(l+1)) - (l+1)/x': (
        NumpyCode(
            text='q/(2*l + 2) - (l + 1)/x',
            params=('l', 'q'),
            source=(
                'def _fn(x, l, q, _subterms):\n'
                '    return q/(2*l + 2) - (l + 1)/x\n'
            ),
            broadcasts=True,
        ),
        NumpyCode(
            text='(l + 1)/x**2',
            params=('l', 'q'),
            source=(
                'def _fn(x, l, q, _subterms):\n'
                '    return (l + 1)/_subterms[0]\n'
                'def _tabulate(x):\n'
                '    return (x**2,)\n'
            ),
            broadcasts=True,
        ),
    ),
}

#: (R text, sorted parameter names) -> R code.
R_FUNCTIONS = {
    ('2*omega', ('omega',)):
        NumpyCode(
            text='2*omega',
            params=('omega',),
            source=(
                'def _fn(omega):\n'
                '    return 2*omega\n'
            ),
            broadcasts=False,
        ),
    ('2*A + 1', ('A',)):
        NumpyCode(
            text='2*A + 1',
            params=('A',),
            source=(
                'def _fn(A):\n'
                '    return 2*A + 1\n'
            ),
            broadcasts=False,
        ),
    ('q^2/4 * (1/l^2 - 1/(l+1)^2)', ('l', 'q')):
        NumpyCode(
            text='q**2*(-1/(l + 1)**2 + l**(-2))/4',
            params=('l', 'q'),
            source=(
                'def _fn(l, q):\n'
                '    return (1/4)*q**2*(-1/(l + 1)**2 + l**(-2.0))\n'
            ),
            broadcasts=False,
        ),
    ('a', ('a',)):
        NumpyCode(
            text='a',
            params=('a',),
            source=(
                'def _fn(a):\n'
                '    return a\n'
            ),
            broadcasts=False,
        ),
    ('c', ('c',)):
        NumpyCode(
            text='c',
            params=('c',),
            source=(
                'def _fn(c):\n'
                '    return c\n'
            ),
            broadcasts=False,
        ),
}
