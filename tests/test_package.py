import ast
import pathlib

import vspace


def test_all_is_exactly_what_the_package_imports():
    # Every name the package imports from its modules is public, and
    # nothing else is: a name dropped from a module must leave both lists.
    tree = ast.parse(pathlib.Path(vspace.__file__).read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(vspace.__all__) == sorted(imported)
    assert len(set(vspace.__all__)) == len(vspace.__all__)
    for name in vspace.__all__:
        assert getattr(vspace, name) is not None
