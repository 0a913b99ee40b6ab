"""The names the README and the package's docstrings cite exist, so a deleted or renamed name leaves no stale reference."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weaktyp"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def resolves(module: str, dotted: str) -> bool:
    """Whether ``dotted`` names an attribute of ``module``, through classes and their dataclass fields."""
    obj = importlib.import_module(module)
    for name in dotted.split("."):
        if not (hasattr(obj, name) or name in getattr(obj, "__dataclass_fields__", {})):
            return False
        obj = getattr(obj, name, None)
    return True


def test_readme_module_references_resolve():
    # `module.name`, where module is one of the package's modules (`np.packbits` is not)
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    refs = re.findall(rf"`({'|'.join(MODULES)})\.([A-Za-z_]\w*)", text)
    assert refs
    missing = sorted({f"{module}.{name}" for module, name in refs if not resolves(f"weaktyp.{module}", name)})
    assert not missing, missing


def test_docstring_cross_references_resolve():
    # :func:`name` resolves in its own module, :func:`~weaktyp.module.name` from the package,
    # and ``module.name``, where module is one of the package's modules, as the README's `module.name`
    checked, missing = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        here = "weaktyp" if path.stem == "__init__" else f"weaktyp.{path.stem}"
        text = path.read_text(encoding="utf-8")
        for module, name in re.findall(rf"``({'|'.join(MODULES)})\.([A-Za-z_]\w*)", text):
            checked += 1
            if not resolves(f"weaktyp.{module}", name):
                missing.append(f"{path.name}: ``{module}.{name}``")
        for role, target in re.findall(r":(func|class|data|attr):`~?([\w.]+)`", text):
            checked += 1
            if target.startswith("weaktyp."):
                # the package is flat: weaktyp.<module>.<name, or class.member>
                _, module, dotted = target.split(".", 2)
                module = f"weaktyp.{module}"
            else:
                module, dotted = here, target
            if not resolves(module, dotted):
                missing.append(f"{path.name}: :{role}:`{target}`")
    assert checked
    assert not missing, missing
