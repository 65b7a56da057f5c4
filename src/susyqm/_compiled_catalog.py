"""Generated numpy code of the catalog records' R.  Do not edit.

SIPRecord.r_function assembles R from this code, so a command on a
built-in record loads no sympy (each record's w is a closed-grammar text).
Regenerate after changing a record's R, or after upgrading sympy, from
the root of a source checkout:

    PYTHONPATH=src python -c "from susyqm.catalog import _render_compiled_catalog as r; open('src/susyqm/_compiled_catalog.py', 'w').write(r())"
"""

from .expressions import NumpyCode

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
        ),
    ('2*A + 1', ('A',)):
        NumpyCode(
            text='2*A + 1',
            params=('A',),
            source=(
                'def _fn(A):\n'
                '    return 2*A + 1\n'
            ),
        ),
    ('q^2/4 * (1/l^2 - 1/(l+1)^2)', ('l', 'q')):
        NumpyCode(
            text='q**2*(-1/(l + 1)**2 + l**(-2))/4',
            params=('l', 'q'),
            source=(
                'def _fn(l, q):\n'
                '    return (1/4)*q**2*(-1/(l + 1)**2 + l**(-2.0))\n'
            ),
        ),
    ('a', ('a',)):
        NumpyCode(
            text='a',
            params=('a',),
            source=(
                'def _fn(a):\n'
                '    return a\n'
            ),
        ),
    ('c', ('c',)):
        NumpyCode(
            text='c',
            params=('c',),
            source=(
                'def _fn(c):\n'
                '    return c\n'
            ),
        ),
}
