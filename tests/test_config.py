import importlib
import inspect
import pkgutil

import pytest

import transverse
from transverse import config
from transverse.config import Caps, caps_scope, current_caps


class TestCapsScope:
    def test_scopes_nest_and_restore(self):
        outer, inner = Caps(max_enum=10), Caps(max_enum=20)
        before = current_caps()
        with caps_scope(outer):
            assert current_caps() is outer
            with caps_scope(inner):
                assert current_caps() is inner
            assert current_caps() is outer
        assert current_caps() is before

    def test_restores_after_exception(self):
        before = current_caps()
        with pytest.raises(config.CapExceededError):
            with caps_scope(Caps(max_enum=1)):
                current_caps().check_enum(2)
        assert current_caps() is before

    def test_no_layer_takes_caps(self):
        # the current caps are the only channel: caps_scope sets them
        # (the CLI's run included), and find_very_transverse_flag keeps
        # caps= as shorthand for a scope around its search
        allowed = {
            "transverse.config.caps_scope",
            "transverse.search.find_very_transverse_flag",
        }
        found = set()
        for info in pkgutil.iter_modules(transverse.__path__):
            mod = importlib.import_module(f"transverse.{info.name}")
            funcs = []
            for obj in vars(mod).values():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    funcs.append(obj)
                elif inspect.isclass(obj):
                    funcs.extend(
                        f for f in vars(obj).values() if inspect.isfunction(f)
                    )
            for f in funcs:
                if "caps" in inspect.signature(f).parameters:
                    found.add(f"{mod.__name__}.{f.__qualname__}")
        assert found == allowed
