#!/usr/bin/env python3
"""Self-contained documentation-site builder for the repro package.

Builds a static HTML site from the Markdown pages in ``docs/`` plus an
auto-generated API reference for every ``repro.*`` package, with **no
dependencies beyond the package's own** (numpy for importing the
modules).  The container/CI images pin their package set, so the usual
MkDocs/Sphinx toolchains are deliberately not required; the page
sources stay plain Markdown and would drop into either tool unchanged.

Usage::

    python docs/build.py [--output SITE_DIR] [--strict]

``--strict`` turns every warning into a build failure (CI runs this):

* internal links that do not resolve to a generated page,
* Markdown pages missing from the navigation (or vice versa),
* unclosed code fences,
* public API symbols (``__all__``) without a docstring, and
  undocumented public methods in the strict-scope modules
  (``repro``, ``repro.engine``, ``repro.library``).

The API reference is introspected from the installed package: module
docstring, then one section per ``__all__`` symbol with its signature
and docstring (NumPy-style text is rendered preformatted, faithfully).
"""

from __future__ import annotations

import argparse
import html
import inspect
import pathlib
import re
import shutil
import sys

DOCS_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

#: Modules documented in the API reference, in navigation order.
API_MODULES = [
    "repro",
    "repro.api",
    "repro.server",
    "repro.obs",
    "repro.core",
    "repro.engine",
    "repro.library",
    "repro.cache",
    "repro.sta",
    "repro.wire",
    "repro.stats",
    "repro.spice",
    "repro.timing",
    "repro.models",
    "repro.analysis",
    "repro.units",
    "repro.errors",
    "repro.cli",
]

#: Modules whose public *methods* must also carry docstrings.
STRICT_DOCSTRING_MODULES = {"repro", "repro.api", "repro.engine",
                            "repro.library", "repro.obs",
                            "repro.sta", "repro.stats",
                            "repro.wire"}

#: Site navigation: (section, [(source page, title), ...]).
NAV: list[tuple[str, list[tuple[str, str]]]] = [
    ("Overview", [
        ("index.md", "Home"),
        ("architecture.md", "Architecture"),
    ]),
    ("Guides", [
        ("api.md", "Session API"),
        ("server.md", "HTTP service"),
        ("engines.md", "Engine backends"),
        ("observability.md", "Observability"),
        ("performance.md", "Performance"),
        ("library.md", "Library characterization"),
        ("sta.md", "Static timing analysis"),
        ("interconnect.md", "Interconnect"),
        ("statistics.md", "Statistical delay"),
        ("multi_input.md", "n-input gates"),
    ]),
    ("Tutorials", [
        ("tutorials/quickstart.md", "Quickstart"),
        ("tutorials/api.md", "Session API walkthrough"),
        ("tutorials/timing-accuracy.md", "Timing accuracy study"),
        ("tutorials/sta.md", "STA walkthrough"),
        ("tutorials/interconnect.md", "Interconnect walkthrough"),
        ("tutorials/statistics.md", "Statistical delay walkthrough"),
        ("tutorials/multi-input.md", "n-input NOR walkthrough"),
    ]),
    ("API reference", [
        (f"api/{name}.md", name) for name in API_MODULES
    ]),
]

_STYLE = """\
:root { --accent: #1a5fb4; --rule: #d0d7de; --code-bg: #f6f8fa; }
* { box-sizing: border-box; }
body { margin: 0; font: 16px/1.6 system-ui, sans-serif; color: #1f2328; }
a { color: var(--accent); text-decoration: none; }
a:hover { text-decoration: underline; }
.layout { display: flex; min-height: 100vh; }
nav { width: 260px; flex-shrink: 0; border-right: 1px solid var(--rule);
      padding: 1.5rem 1rem; background: #fafbfc; }
nav h1 { font-size: 1rem; margin: 0 0 1rem; }
nav h2 { font-size: .78rem; text-transform: uppercase; color: #57606a;
         margin: 1.2rem 0 .3rem; letter-spacing: .05em; }
nav ul { list-style: none; margin: 0; padding: 0; }
nav li a { display: block; padding: .15rem .4rem; border-radius: 4px;
           font-size: .92rem; }
nav li a.current { background: var(--accent); color: #fff; }
main { flex: 1; max-width: 56rem; padding: 2rem 3rem 4rem; }
main h1, main h2, main h3 { line-height: 1.25; }
main h2 { border-bottom: 1px solid var(--rule); padding-bottom: .25rem; }
pre { background: var(--code-bg); border: 1px solid var(--rule);
      border-radius: 6px; padding: .8rem 1rem; overflow-x: auto;
      font-size: .88rem; line-height: 1.45; }
code { background: var(--code-bg); border-radius: 4px;
       padding: .1rem .3rem; font-size: .9em; }
pre code { background: none; border: none; padding: 0; }
pre.docstring { background: #fffdf5; border-color: #e6dcb8; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid var(--rule); padding: .35rem .7rem;
         text-align: left; }
th { background: var(--code-bg); }
blockquote { border-left: 4px solid var(--rule); margin: 1rem 0;
             padding: .1rem 1rem; color: #57606a; }
.symbol-kind { color: #57606a; font-size: .8rem;
               text-transform: uppercase; letter-spacing: .04em; }
.api-symbol { border-top: 1px solid var(--rule); margin-top: 2rem;
              padding-top: 1rem; }
"""


class Builder:
    """Collects warnings while rendering the site."""

    def __init__(self) -> None:
        self.warnings: list[str] = []

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        print(f"WARNING: {message}", file=sys.stderr)

    # ------------------------------------------------------------------
    # Markdown -> HTML
    # ------------------------------------------------------------------

    _CODE_SPAN = re.compile(r"`([^`]+)`")
    _BOLD = re.compile(r"\*\*(.+?)\*\*")
    _ITALIC = re.compile(r"(?<!\*)\*([^*]+)\*(?!\*)")
    _LINK = re.compile(r"\[([^\]]+)\]\(([^)\s]+)\)")

    def _inline(self, text: str, page: str) -> str:
        """Inline markup: code spans, links, bold, italic."""
        tokens: list[str] = []

        def stash(match: re.Match) -> str:
            tokens.append(f"<code>{html.escape(match.group(1))}</code>")
            return f"\x00{len(tokens) - 1}\x00"

        text = self._CODE_SPAN.sub(stash, text)
        text = html.escape(text, quote=False)

        def link(match: re.Match) -> str:
            label, target = match.group(1), match.group(2)
            if not target.startswith(("http://", "https://", "#")):
                self._links.setdefault(page, []).append(target)
                target = re.sub(r"\.md(#|$)", r".html\1", target)
            return f'<a href="{target}">{label}</a>'

        text = self._LINK.sub(link, text)
        text = self._BOLD.sub(r"<strong>\1</strong>", text)
        text = self._ITALIC.sub(r"<em>\1</em>", text)
        for index, token in enumerate(tokens):
            text = text.replace(f"\x00{index}\x00", token)
        return text

    def markdown_to_html(self, source: str, page: str) -> str:
        """A deliberately small CommonMark subset, enough for these
        pages: headings, fenced code, tables, lists, quotes, rules,
        paragraphs with inline markup."""
        lines = source.split("\n")
        out: list[str] = []
        i = 0
        in_list: str | None = None

        def close_list() -> None:
            nonlocal in_list
            if in_list:
                out.append(f"</{in_list}>")
                in_list = None

        while i < len(lines):
            line = lines[i]
            stripped = line.strip()

            if stripped.startswith("```"):
                close_list()
                language = stripped[3:].strip()
                block: list[str] = []
                i += 1
                while i < len(lines) and not lines[i].strip() \
                        .startswith("```"):
                    block.append(lines[i])
                    i += 1
                if i >= len(lines):
                    self.warn(f"{page}: unclosed code fence")
                i += 1
                css = f' class="language-{language}"' if language else ""
                out.append(f"<pre><code{css}>"
                           f"{html.escape(chr(10).join(block))}"
                           "</code></pre>")
                continue

            heading = re.match(r"(#{1,6})\s+(.*)", stripped)
            if heading:
                close_list()
                level = len(heading.group(1))
                text = self._inline(heading.group(2), page)
                anchor = re.sub(r"[^a-z0-9]+", "-",
                                heading.group(2).lower()).strip("-")
                out.append(f'<h{level} id="{anchor}">{text}'
                           f"</h{level}>")
                i += 1
                continue

            if stripped in ("---", "***") and not in_list:
                out.append("<hr>")
                i += 1
                continue

            if stripped.startswith("|"):
                close_list()
                rows: list[str] = []
                while i < len(lines) and lines[i].strip() \
                        .startswith("|"):
                    rows.append(lines[i].strip())
                    i += 1
                out.append(self._table(rows, page))
                continue

            if stripped.startswith(">"):
                close_list()
                quote: list[str] = []
                while i < len(lines) and lines[i].strip() \
                        .startswith(">"):
                    quote.append(lines[i].strip().lstrip("> "))
                    i += 1
                inner = self._inline(" ".join(quote), page)
                out.append(f"<blockquote><p>{inner}</p></blockquote>")
                continue

            bullet = re.match(r"[-*]\s+(.*)", stripped)
            ordered = re.match(r"\d+\.\s+(.*)", stripped)
            if bullet or ordered:
                kind = "ul" if bullet else "ol"
                if in_list != kind:
                    close_list()
                    out.append(f"<{kind}>")
                    in_list = kind
                text = (bullet or ordered).group(1)
                # Hanging continuation lines belong to the same item.
                while (i + 1 < len(lines)
                       and lines[i + 1].startswith("  ")
                       and lines[i + 1].strip()
                       and not re.match(r"[-*\d]", lines[i + 1].strip())):
                    i += 1
                    text += " " + lines[i].strip()
                out.append(f"<li>{self._inline(text, page)}</li>")
                i += 1
                continue

            if not stripped:
                close_list()
                i += 1
                continue

            paragraph = [stripped]
            while (i + 1 < len(lines) and lines[i + 1].strip()
                   and not lines[i + 1].strip()
                   .startswith(("#", "```", "|", ">", "- ", "* "))
                   and not re.match(r"\d+\.\s", lines[i + 1].strip())):
                i += 1
                paragraph.append(lines[i].strip())
            close_list()
            out.append(f"<p>{self._inline(' '.join(paragraph), page)}"
                       "</p>")
            i += 1

        close_list()
        return "\n".join(out)

    def _table(self, rows: list[str], page: str) -> str:
        def cells(row: str) -> list[str]:
            return [cell.strip() for cell in row.strip("|").split("|")]

        body_rows = [row for row in rows
                     if not re.fullmatch(r"[|\s:-]+", row)]
        if not body_rows:
            return ""
        parts = ["<table>", "<thead><tr>"]
        parts += [f"<th>{self._inline(cell, page)}</th>"
                  for cell in cells(body_rows[0])]
        parts.append("</tr></thead><tbody>")
        for row in body_rows[1:]:
            parts.append("<tr>" + "".join(
                f"<td>{self._inline(cell, page)}</td>"
                for cell in cells(row)) + "</tr>")
        parts.append("</tbody></table>")
        return "".join(parts)

    # ------------------------------------------------------------------
    # API reference generation
    # ------------------------------------------------------------------

    def _docstring_block(self, obj, owner: str,
                         required: bool) -> str:
        doc = inspect.getdoc(obj)
        if not doc:
            if required:
                self.warn(f"missing docstring: {owner}")
            return "<p><em>No docstring.</em></p>"
        return (f'<pre class="docstring">{html.escape(doc)}</pre>')

    @staticmethod
    def _signature(obj) -> str:
        try:
            return str(inspect.signature(obj))
        except (TypeError, ValueError):
            return "(...)"

    def api_page(self, module_name: str) -> str:
        import importlib

        module = importlib.import_module(module_name)
        strict_scope = module_name in STRICT_DOCSTRING_MODULES
        parts = [f"<h1><code>{module_name}</code></h1>",
                 self._docstring_block(module, module_name, True)]
        exported = list(getattr(module, "__all__", []))
        if not exported:
            self.warn(f"{module_name}: no __all__; API page empty")
        for name in exported:
            if name.startswith("__"):
                continue
            try:
                obj = getattr(module, name)
            except AttributeError:
                self.warn(f"{module_name}.__all__ lists missing "
                          f"symbol {name!r}")
                continue
            qualified = f"{module_name}.{name}"
            if inspect.isclass(obj):
                kind = "class"
            elif inspect.isfunction(obj) or inspect.isbuiltin(obj):
                kind = "function"
            elif inspect.ismodule(obj):
                kind = "module"
            else:
                kind = "data"
            parts.append('<div class="api-symbol">')
            parts.append(f'<span class="symbol-kind">{kind}</span>')
            title = html.escape(name)
            if kind in ("class", "function"):
                title += html.escape(self._signature(obj))
            parts.append(f'<h2 id="{name}"><code>{title}</code></h2>')
            if kind == "data":
                parts.append(
                    f"<p>value: <code>"
                    f"{html.escape(repr(obj)[:120])}</code></p>")
            else:
                parts.append(self._docstring_block(obj, qualified,
                                                   True))
            if inspect.isclass(obj):
                parts.append(self._class_members(obj, qualified,
                                                 strict_scope))
            parts.append("</div>")
        return "\n".join(parts)

    def _class_members(self, cls, qualified: str,
                       strict_scope: bool) -> str:
        parts: list[str] = []
        for name, member in sorted(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(member, property):
                member_kind, target = "property", member.fget
                signature = ""
            elif inspect.isfunction(member):
                member_kind, target = "method", member
                signature = html.escape(self._signature(member))
            elif isinstance(member, (classmethod, staticmethod)):
                member_kind = "classmethod"
                target = member.__func__
                signature = html.escape(self._signature(target))
            else:
                continue
            parts.append(
                f'<h3 id="{qualified.rsplit(".", 1)[-1]}.{name}">'
                f'<code>{name}{signature}</code> '
                f'<span class="symbol-kind">{member_kind}</span></h3>')
            parts.append(self._docstring_block(
                target, f"{qualified}.{name}", strict_scope))
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # site assembly
    # ------------------------------------------------------------------

    def build(self, output: pathlib.Path) -> None:
        self._links: dict[str, list[str]] = {}
        output.mkdir(parents=True, exist_ok=True)
        (output / "style.css").write_text(_STYLE)

        pages = [(source, title)
                 for _section, entries in NAV
                 for source, title in entries]

        # Source pages present on disk but absent from NAV rot silently.
        on_disk = {str(p.relative_to(DOCS_DIR))
                   for p in DOCS_DIR.rglob("*.md")}
        in_nav = {source for source, _ in pages
                  if not source.startswith("api/")}
        for orphan in sorted(on_disk - in_nav):
            self.warn(f"{orphan}: Markdown page not referenced in the "
                      "navigation")
        for missing in sorted(in_nav - on_disk):
            self.warn(f"{missing}: page in navigation but missing "
                      "from docs/")

        for source, title in pages:
            if source.startswith("api/"):
                module_name = source[len("api/"):-len(".md")]
                content = self.api_page(module_name)
            else:
                path = DOCS_DIR / source
                if not path.exists():
                    continue  # already warned above
                content = self.markdown_to_html(path.read_text(),
                                                source)
            destination = output / source.replace(".md", ".html")
            destination.parent.mkdir(parents=True, exist_ok=True)
            destination.write_text(self._template(source, title,
                                                  content))

        self._check_links(output, pages)

    def _template(self, source: str, title: str, content: str) -> str:
        depth = source.count("/")
        prefix = "../" * depth
        sections = []
        for section, entries in NAV:
            items = []
            for page_source, page_title in entries:
                href = prefix + page_source.replace(".md", ".html")
                current = ' class="current"' if page_source == source \
                    else ""
                items.append(f'<li><a href="{href}"{current}>'
                             f"{html.escape(page_title)}</a></li>")
            sections.append(f"<h2>{html.escape(section)}</h2>"
                            f"<ul>{''.join(items)}</ul>")
        navigation = "\n".join(sections)
        return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{html.escape(title)} — repro documentation</title>
<link rel="stylesheet" href="{prefix}style.css">
</head>
<body>
<div class="layout">
<nav>
<h1><a href="{prefix}index.html">repro</a></h1>
{navigation}
</nav>
<main>
{content}
</main>
</div>
</body>
</html>
"""

    def _check_links(self, output: pathlib.Path,
                     pages: list[tuple[str, str]]) -> None:
        """Every internal Markdown link must land on a built page."""
        for page, targets in self._links.items():
            base = pathlib.Path(page).parent
            for target in targets:
                file_part = target.split("#", 1)[0]
                if not file_part:
                    continue
                resolved = (output / base / file_part.replace(
                    ".md", ".html")).resolve()
                if not resolved.exists():
                    self.warn(f"{page}: broken internal link "
                              f"-> {target}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "site"),
                        help="output directory (default: ./site)")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors (CI mode)")
    parser.add_argument("--clean", action="store_true",
                        help="delete the output directory first")
    args = parser.parse_args(argv)

    output = pathlib.Path(args.output)
    if args.clean and output.exists():
        shutil.rmtree(output)

    builder = Builder()
    builder.build(output)

    generated = len(list(output.rglob("*.html")))
    print(f"built {generated} pages into {output}")
    if builder.warnings:
        print(f"{len(builder.warnings)} warning(s)", file=sys.stderr)
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
