"""The simulated-application base class and the screenshot abstraction.

A :class:`SimulatedApplication` owns a configuration store of the right
flavour (registry / GConf / file), exposes the user-level verbs the
workload generator and the repair trials drive it with, and renders its
visible state into a hashable :class:`Screenshot`.

Key-name plumbing: schema setting names are local (``mail/mark_seen``);
each store flavour maps them to the canonical names the loggers record in
the TTKV (registry paths, GConf paths, or ``<file>:<key>``).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.apps.schema import (
    ModeListGroup,
    ConfigSchema,
    DependencyGroup,
    LimiterListGroup,
    VOLATILITY_STATE,
)
from repro.common.clock import SimClock
from repro.common.hashing import stable_hash
from repro.exceptions import SchemaError, UnknownActionError
from repro.loggers.file_logger import FileLogger, file_key
from repro.loggers.gconf_logger import GConfLogger
from repro.loggers.registry_logger import RegistryLogger
from repro.stores.base import ConfigStore
from repro.stores.filestore import FileStore, VirtualFile
from repro.stores.gconf import GConfStore
from repro.stores.registry import RegistryStore
from repro.ttkv.store import TTKV

STORE_REGISTRY = "registry"
STORE_GCONF = "gconf"
STORE_FILE = "file"

_STORE_KINDS = (STORE_REGISTRY, STORE_GCONF, STORE_FILE)


@dataclass(frozen=True)
class Screenshot:
    """A hashable rendering of an application's visible state.

    Equality is what the repair tool's de-duplication relies on: two
    screenshots are identical iff the same visible elements show the same
    content.
    """

    app_name: str
    elements: frozenset[tuple[str, Any]]

    def element(self, name: str) -> Any:
        """Value of one visible element; raises KeyError when absent."""
        for element_name, value in self.elements:
            if element_name == name:
                return value
        raise KeyError(name)

    def has_element(self, name: str) -> bool:
        return any(element_name == name for element_name, _ in self.elements)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"[{self.app_name}]"]
        for name, value in sorted(self.elements, key=lambda e: e[0]):
            lines.append(f"  {name} = {value!r}")
        return "\n".join(lines)


def _freeze(value: Any) -> Any:
    """Make arbitrary setting values hashable for screenshot elements."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


ActionHandler = Callable[..., None]


class SimulatedApplication:
    """Base class for the eleven simulated applications.

    Parameters
    ----------
    name:
        Display name (Table II's Application column).
    schema:
        The configuration schema with ground-truth dependency groups.
    store_kind:
        ``registry``, ``gconf`` or ``file``.
    config_path:
        Registry sub-path under HKCU\\Software, GConf directory, or the
        configuration file path, depending on ``store_kind``.
    file_format:
        Parser name for file-backed apps (ignored otherwise).
    """

    #: per-trial execution cost in simulated seconds (app start-up +
    #: replay); subclasses override to differentiate heavyweight apps.
    trial_cost_seconds: float = 10.0

    #: probability that a preference change goes through a dialog that
    #: rewrites its whole settings page on Apply (even unchanged values).
    #: Registry/GConf loggers record those same-value rewrites, so pages
    #: fuse into oversized clusters — the paper's Evolution Mail, GNOME
    #: Edit, MS Paint and IE rows.  File loggers diff flushes and are
    #: blind to same-value rewrites, which is why the paper's file-backed
    #: applications cluster accurately.
    page_apply_prob: float = 0.05

    #: settings per preferences-dialog page
    page_size: int = 10

    #: whether hand-authored feature groups get their own dialog page;
    #: tiny applications (GNOME Edit) have a single preferences dialog
    #: that applies everything at once
    dedicated_group_pages: bool = True

    def __init__(
        self,
        name: str,
        schema: ConfigSchema,
        store_kind: str,
        config_path: str,
        clock: SimClock | None = None,
        file_format: str = "plaintext",
    ) -> None:
        if store_kind not in _STORE_KINDS:
            raise SchemaError(f"unknown store kind {store_kind!r}")
        self.name = name
        self.schema = schema
        self.store_kind = store_kind
        self.config_path = config_path
        self.clock = clock if clock is not None else SimClock()
        self.file_format = file_format
        self._session: dict[str, Any] = {}
        self._actions: dict[str, ActionHandler] = {}
        # Store-API call latency: real applications take tens of
        # milliseconds between successive key writes, so a multi-key
        # update can straddle a second boundary under the collector's 1 s
        # timestamp quantisation.  This is what produces the paper's
        # Fig. 3a cliff between window=0 and window=1.
        self._latency_rng = random.Random(stable_hash(name))
        self.write_latency_range = (0.02, 0.25)
        self.read_latency_range = (0.0005, 0.004)

        self.file: VirtualFile | None = None
        if store_kind == STORE_REGISTRY:
            self.store: ConfigStore = RegistryStore(clock=self.clock)
        elif store_kind == STORE_GCONF:
            self.store = GConfStore(clock=self.clock)
        else:
            self.file = VirtualFile(config_path)
            self.store = FileStore(
                self.file, file_format, clock=self.clock, autoflush=True
            )

        self.install_defaults()
        if isinstance(self.store, FileStore):
            # Materialise the defaults into the configuration file before
            # any logger attaches.  Otherwise the first flush after an
            # ordinary write would diff against an empty file and record
            # the whole schema as one giant co-written group.
            self.store.flush()
        self._pref_pages = self._build_pref_pages()
        self.register_action("launch", self.launch)
        self.register_action("open_document", self.open_document)
        self.register_action("close_document", self.close_document)

    # -- key naming -----------------------------------------------------------

    def canonical_key(self, setting_name: str) -> str:
        """TTKV name the loggers record for a schema-local setting name."""
        if self.store_kind == STORE_REGISTRY:
            local = setting_name.replace("/", "\\")
            return f"HKCU\\Software\\{self.config_path}\\{local}"
        if self.store_kind == STORE_GCONF:
            return f"{self.config_path}/{setting_name}"
        return file_key(self.config_path, setting_name)

    def setting_name(self, canonical: str) -> str:
        """Inverse of :meth:`canonical_key`."""
        if self.store_kind == STORE_REGISTRY:
            prefix = f"HKCU\\Software\\{self.config_path}\\"
            if not canonical.startswith(prefix):
                raise SchemaError(f"{canonical!r} is not a {self.name} key")
            return canonical[len(prefix):].replace("\\", "/")
        if self.store_kind == STORE_GCONF:
            prefix = f"{self.config_path}/"
            if not canonical.startswith(prefix):
                raise SchemaError(f"{canonical!r} is not a {self.name} key")
            return canonical[len(prefix):]
        prefix = f"{self.config_path}:"
        if not canonical.startswith(prefix):
            raise SchemaError(f"{canonical!r} is not a {self.name} key")
        return canonical[len(prefix):]

    def store_key(self, setting_name: str) -> str:
        """Key under which the *store* holds a schema-local setting."""
        if self.store_kind == STORE_FILE:
            return setting_name
        return self.canonical_key(setting_name)

    @property
    def key_prefix(self) -> str:
        """Canonical-key prefix selecting this app's settings in a TTKV."""
        if self.store_kind == STORE_REGISTRY:
            return f"HKCU\\Software\\{self.config_path}\\"
        if self.store_kind == STORE_GCONF:
            return f"{self.config_path}/"
        return f"{self.config_path}:"

    def canonical_ground_truth_groups(self) -> list[frozenset[str]]:
        """Dependency groups in canonical-key form (for accuracy scoring)."""
        return [
            frozenset(self.canonical_key(name) for name in group.keys())
            for group in self.schema.groups
        ]

    # -- configuration access ----------------------------------------------

    def install_defaults(self) -> None:
        """Silently load schema defaults (pre-logging initial state)."""
        defaults = {
            self.store_key(spec.name): spec.default
            for spec in self.schema.settings
            if spec.default is not None
        }
        self.store.load_dict(defaults, notify=False)

    def value(self, setting_name: str) -> Any:
        """Current value of a setting, observer-silent (internal reads)."""
        return self.store.peek(self.store_key(setting_name))

    def read_setting(self, setting_name: str) -> Any:
        """A *logged* read, as the real application performs at runtime."""
        self.clock.advance(self._latency_rng.uniform(*self.read_latency_range))
        return self.store.get(self.store_key(setting_name))

    def user_set(self, setting_name: str, value: Any) -> None:
        """A logged write triggered by explicit user/preference action."""
        self.clock.advance(self._latency_rng.uniform(*self.write_latency_range))
        self.store.set(self.store_key(setting_name), value)

    def app_set(self, setting_name: str, value: Any) -> None:
        """A logged write the application performs on its own behalf."""
        self.clock.advance(self._latency_rng.uniform(*self.write_latency_range))
        self.store.set(self.store_key(setting_name), value)

    def app_delete(self, setting_name: str) -> None:
        self.clock.advance(self._latency_rng.uniform(*self.write_latency_range))
        self.store.delete(self.store_key(setting_name))

    def spec(self, setting_name: str):
        return self.schema.spec(setting_name)

    # -- logging ----------------------------------------------------------

    def attach_logger(self, ttkv: TTKV, precision: float = 1.0):
        """Create and attach the flavour-appropriate logger; return it."""
        if self.store_kind == STORE_REGISTRY:
            logger = RegistryLogger(ttkv, precision=precision)
            logger.attach(self.store)  # type: ignore[arg-type]
            return logger
        if self.store_kind == STORE_GCONF:
            logger = GConfLogger(ttkv, precision=precision)
            logger.attach(self.store)  # type: ignore[arg-type]
            return logger
        logger = FileLogger(ttkv, self.file_format, precision=precision)
        assert self.file is not None
        logger.attach(self.file)
        return logger

    # -- UI actions ---------------------------------------------------------

    def register_action(self, name: str, handler: ActionHandler) -> None:
        self._actions[name] = handler

    def action_names(self) -> list[str]:
        return sorted(self._actions)

    def perform(self, action: str, **params: Any) -> None:
        """Execute one deterministic UI action (the unit trials replay)."""
        handler = self._actions.get(action)
        if handler is None:
            raise UnknownActionError(self.name, action)
        handler(**params)

    # Default actions -------------------------------------------------------

    def launch(self) -> None:
        """Application start-up: reads every setting (the read traffic that
        dominates Table I) and resets session state."""
        self._session = {}
        for spec in self.schema.settings:
            self.read_setting(spec.name)

    def open_document(self, doc: str) -> None:
        """Open a document; feeds the MRU list when the app has one."""
        self._session["document"] = doc
        mru = self._mru_group()
        if mru is not None:
            mru.push_item(self, doc)

    def close_document(self) -> None:
        self._session.pop("document", None)

    def _mru_group(self) -> LimiterListGroup | None:
        for group in self.schema.groups:
            if isinstance(group, LimiterListGroup):
                return group
        return None

    # -- workload verbs (rng-driven; not replayed in trials) -----------------

    def _build_pref_pages(self) -> list[list[object]]:
        """Partition config settings into preferences-dialog pages.

        Each page holds whole dependency groups plus independent config
        settings, packed to roughly ``page_size`` settings in schema
        order.  The partition is a property of the application's dialog
        layout, so it is deterministic.
        """
        pages: list[list[object]] = []
        current: list[object] = []
        count = 0

        def close_page() -> None:
            nonlocal current, count
            if current:
                pages.append(current)
            current = []
            count = 0

        for group in self.schema.groups:
            if not group.is_filler and self.dedicated_group_pages:
                # Hand-authored feature groups get a dedicated dialog
                # page (real applications put e.g. the Open-With editor
                # in its own dialog), so a whole-page Apply rewrites
                # exactly the feature family.
                close_page()
                pages.append([group])
                continue
            size = len(group.keys())
            if count and count + size > self.page_size:
                close_page()
            current.append(group)
            count += size
            if count >= self.page_size:
                close_page()
        for name in self.schema.independent_settings():
            if self.schema.spec(name).volatility == VOLATILITY_STATE:
                continue
            current.append(name)
            count += 1
            if count >= self.page_size:
                close_page()
        close_page()
        return pages

    def _page_settings(self, page: list[object]) -> list[str]:
        names: list[str] = []
        for entry in page:
            if isinstance(entry, DependencyGroup):
                names.extend(sorted(entry.keys()))
            else:
                names.append(entry)  # type: ignore[arg-type]
        return names

    def change_preference(self, rng: random.Random) -> None:
        """User edits preferences: open a dialog page, change one thing.

        With probability ``page_apply_prob`` the dialog rewrites every
        setting on the page when applied (unchanged values included).
        """
        if not self._pref_pages:
            return
        page = rng.choice(self._pref_pages)
        target = rng.choice(page)
        if isinstance(target, DependencyGroup):
            target.coherent_update(self, rng)
        else:
            name = target
            self.user_set(name, self.spec(name).domain.perturb(rng, self.value(name)))
        if rng.random() < self.page_apply_prob:
            changed = (
                target.keys() if isinstance(target, DependencyGroup) else {target}
            )
            for name in self._page_settings(page):
                if name not in changed:
                    self.app_set(name, self.value(name))

    def partial_group_update(self, rng: random.Random) -> None:
        """A legal partial update driven by ordinary use.

        Only the archetypes with state churn qualify: MRU pushes touch a
        limiter-list's items without its limiter, and mode-list orderings
        change without their entries (the undersized-cluster sources
        behind the paper's errors #2 and #4).  Enabler families and
        generic groups are only written by preference dialogs.
        """
        churny = [
            group
            for group in self.schema.groups
            if isinstance(group, (LimiterListGroup, ModeListGroup))
        ]
        if churny:
            rng.choice(churny).partial_update(self, rng)

    def activity(self, rng: random.Random, intensity: int = 3) -> None:
        """Ordinary use: touches state-volatile settings and MRU lists."""
        state_settings = [
            spec.name
            for spec in self.schema.settings
            if spec.volatility == VOLATILITY_STATE
            and spec.name in self.schema.independent_settings()
        ]
        for _ in range(intensity):
            roll = rng.random()
            if roll < 0.5 and state_settings:
                name = rng.choice(state_settings)
                self.app_set(
                    name, self.spec(name).domain.perturb(rng, self.value(name))
                )
            elif roll < 0.8:
                mru = self._mru_group()
                if mru is not None:
                    mru.push_item(self, mru.item_domain.sample(rng))
            else:
                self.partial_group_update(rng)

    def software_update(self, rng: random.Random, breadth: int = 10) -> None:
        """A software update rewrites many unrelated settings at once —
        the paper's second source of oversized clusters.

        Updates migrate whole preference blocks: a grouped setting is
        rewritten with its entire dependency group, an independent one
        alone.  (An update that rewrote half a feature family would leave
        the application inconsistent, which real updaters avoid.)
        """
        if not self.dedicated_group_pages:
            # Tiny single-dialog applications: an update migrates the
            # whole configuration in one go.
            for name in self.schema.names():
                spec = self.spec(name)
                self.app_set(name, spec.domain.perturb(rng, self.value(name)))
            return
        independents = self.schema.independent_settings()
        rng.shuffle(independents)
        for name in independents[:breadth]:
            spec = self.spec(name)
            self.app_set(name, spec.domain.perturb(rng, self.value(name)))
        if self.schema.groups and rng.random() < 0.3:
            group = rng.choice(self.schema.groups)
            for name in sorted(group.keys()):
                spec = self.spec(name)
                self.app_set(name, spec.domain.perturb(rng, self.value(name)))

    # -- rendering ------------------------------------------------------------

    def render(self) -> Screenshot:
        """Current visible state as a screenshot."""
        elements: list[tuple[str, Any]] = []
        if "document" in self._session:
            elements.append(("document", self._session["document"]))
        for name in self.schema.independent_settings():
            spec = self.schema.spec(name)
            if spec.visible:
                elements.append((f"setting/{name}", _freeze(self.value(name))))
        for group in self.schema.groups:
            elements.extend(
                (element, _freeze(value)) for element, value in group.render(self)
            )
        elements.extend(
            (element, _freeze(value)) for element, value in self.derived_elements()
        )
        return Screenshot(app_name=self.name, elements=frozenset(elements))

    def derived_elements(self) -> list[tuple[str, Any]]:
        """App-specific visible behaviour; subclasses override."""
        return []

    # -- sandboxing ------------------------------------------------------------

    def clone_sandboxed(self, clock: SimClock | None = None) -> "SimulatedApplication":
        """A twin with a cloned store and no observers (see repair.sandbox)."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.clock = clock if clock is not None else SimClock(self.clock.now())
        twin.store = self.store.clone(clock=twin.clock)
        if isinstance(twin.store, FileStore):
            twin.file = twin.store.file
        twin._session = dict(self._session)
        twin._actions = {}
        # Re-bind action handlers to the twin (they were bound methods of
        # the original instance and would otherwise mutate the wrong app).
        for action, handler in self._actions.items():
            bound_self = getattr(handler, "__self__", None)
            if bound_self is self:
                twin._actions[action] = getattr(twin, handler.__name__)
            else:  # pragma: no cover - free-function handlers
                twin._actions[action] = handler
        return twin

    def detached_copy(self) -> "SimulatedApplication":
        """An independent deep copy that shares only the clock.

        Store, schema, session and action table are all copied; no
        logger is attached to the copy's store, so its writes are not
        recorded and nothing done to it reaches this application.
        """
        twin = self.clone_sandboxed(clock=self.clock)
        # the cloned store (and its file) is already the copy's own
        keep = (self.clock, twin.store, twin.file)
        return copy.deepcopy(twin, {id(obj): obj for obj in keep})
