// Command docscheck is the documentation gate behind `make docs-check` (the
// CI docs job): it keeps the markdown guides honest against the code.
//
// Usage:
//
//	docscheck README.md TUNING.md DESIGN.md
//
// Five checks run over every file given:
//
//   - Every fenced ```go block must be a complete, compilable Go file. Each
//     block is extracted into a throwaway package directory inside the
//     module (so `repro` imports resolve) and built with `go build`. Blocks
//     that are deliberately not Go files belong in ```text or untagged
//     fences.
//   - Every intra-repo markdown link — `[text](target)` where the target is
//     not an external URL or a pure fragment — must point at an existing
//     file or directory, resolved relative to the markdown file.
//   - Every //mmqjp: directive appearing inside any fenced code block must
//     parse under the grammar in internal/lint (known name, argument arity),
//     so the documented examples can never drift from what mmqjplint
//     actually accepts.
//   - Every -flag attached to mmqjp-server must be defined by a flag.*("name",
//     ...) call in cmd/mmqjp-server/main.go, so a guide cannot keep
//     advertising a flag the server no longer has. A flag is attached to the
//     server when it follows the word mmqjp-server on a command line of a
//     fenced ```sh block or inside an inline code span, or when it opens an
//     inline code span in a paragraph that mentions the server (other tools'
//     flags live in paragraphs about those tools). ROADMAP.md is exempt: it
//     proposes flags that do not exist yet.
//   - Every command quoted in an inline code span or a fenced block other
//     than ```go must exist: `make <target>` names a target of the Makefile,
//     `go run ./cmd/<dir>` (after `-C <module>`, that module's) names an
//     existing directory, and every id of an `-experiment <ids>` list is one
//     mmqjp-bench runs. ROADMAP.md is exempt: it records commands that have
//     since been retired.
//
// Run it from the repository root. Exit status is 1 on any failure, with one
// diagnostic line each.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/lint"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docscheck <markdown-file>...")
		os.Exit(2)
	}
	readFile := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		return string(data)
	}
	defined := definedNames(flagDefRe, readFile(serverMain))
	targets := definedNames(makeTargetRe, readFile("Makefile"))
	var msgs []string
	for _, path := range os.Args[1:] {
		text := readFile(path)
		msgs = append(msgs, checkGoBlocks(path, text)...)
		msgs = append(msgs, checkLinks(path, text)...)
		msgs = append(msgs, checkDirectives(path, text)...)
		// The roadmap proposes flags that do not exist yet and records
		// commands that no longer do.
		if filepath.Base(path) != "ROADMAP.md" {
			msgs = append(msgs, checkServerFlags(path, text, defined)...)
			msgs = append(msgs, checkCommands(path, text, ".", targets)...)
		}
	}
	for _, msg := range msgs {
		fmt.Fprintln(os.Stderr, msg)
	}
	if len(msgs) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d failure(s)\n", len(msgs))
		os.Exit(1)
	}
	fmt.Println("docscheck: all go blocks compile, all intra-repo links resolve, all //mmqjp: examples parse, all mmqjp-server flags and quoted commands exist")
}

// goBlock is one fenced ```go block with the line it starts on.
type goBlock struct {
	line int
	code string
}

// extractGoBlocks scans fenced code blocks and returns the go-tagged ones.
func extractGoBlocks(text string) []goBlock {
	var out []goBlock
	lines := strings.Split(text, "\n")
	inBlock := false
	isGo := false
	start := 0
	var buf []string
	for i, l := range lines {
		trimmed := strings.TrimSpace(l)
		if !inBlock && strings.HasPrefix(trimmed, "```") {
			inBlock = true
			isGo = strings.TrimPrefix(trimmed, "```") == "go"
			start = i + 1
			buf = buf[:0]
			continue
		}
		if inBlock && trimmed == "```" {
			if isGo {
				out = append(out, goBlock{line: start + 1, code: strings.Join(buf, "\n")})
			}
			inBlock = false
			continue
		}
		if inBlock {
			buf = append(buf, l)
		}
	}
	return out
}

// checkGoBlocks builds every ```go block of one markdown file.
func checkGoBlocks(path, text string) (msgs []string) {
	for i, b := range extractGoBlocks(text) {
		if !strings.Contains(b.code, "package ") {
			msgs = append(msgs, fmt.Sprintf("%s:%d: go block has no package clause — make it a complete file or retag the fence", path, b.line))
			continue
		}
		dir, err := os.MkdirTemp(".", ".docscheck-*")
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("docscheck: %v", err))
			continue
		}
		file := filepath.Join(dir, "block.go")
		if err := os.WriteFile(file, []byte(b.code+"\n"), 0o644); err != nil {
			msgs = append(msgs, fmt.Sprintf("docscheck: %v", err))
			os.RemoveAll(dir)
			continue
		}
		cmd := exec.Command("go", "build", "-o", os.DevNull, "./"+dir)
		out, err := cmd.CombinedOutput()
		if err != nil {
			msgs = append(msgs, fmt.Sprintf("%s:%d: go block %d does not compile:\n%s", path, b.line, i+1, strings.TrimSpace(string(out))))
		}
		os.RemoveAll(dir)
	}
	return msgs
}

// linkRe matches inline markdown links. Images and reference-style links
// are out of scope; the guides use inline links only.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// checkLinks verifies every intra-repo link target of one markdown file.
func checkLinks(path, text string) (msgs []string) {
	dir := filepath.Dir(path)
	for i, line := range strings.Split(text, "\n") {
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target = target[:idx]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				msgs = append(msgs, fmt.Sprintf("%s:%d: broken link %q", path, i+1, m[1]))
			}
		}
	}
	return msgs
}

// checkDirectives validates every //mmqjp: directive inside fenced code
// blocks (any fence tag) against the grammar table in internal/lint. Doc
// examples of the annotation language must stay parseable by mmqjplint.
func checkDirectives(path, text string) (msgs []string) {
	inBlock := false
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inBlock = !inBlock
			continue
		}
		if !inBlock {
			continue
		}
		idx := strings.Index(line, lint.DirectivePrefix)
		if idx < 0 {
			continue
		}
		directive := strings.TrimRight(line[idx:], " \t")
		if _, _, err := lint.ParseDirectiveText(directive); err != nil {
			msgs = append(msgs, fmt.Sprintf("%s:%d: bad //mmqjp: directive example: %v", path, i+1, err))
		}
	}
	return msgs
}

// serverMain is where mmqjp-server defines its flags.
const serverMain = "cmd/mmqjp-server/main.go"

var (
	flagDefRe  = regexp.MustCompile(`flag\.[A-Za-z0-9]+\(\s*"([^"]+)"`)
	flagUseRe  = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	serverRe   = regexp.MustCompile(`(?i)\bserver`)
)

// definedNames returns the names src defines, as def's first group matches
// them: flagDefRe for the flags a Go source file registers with the flag
// package, makeTargetRe for the targets of a Makefile.
func definedNames(def *regexp.Regexp, src string) map[string]bool {
	out := map[string]bool{}
	for _, m := range def.FindAllStringSubmatch(src, -1) {
		out[m[1]] = true
	}
	return out
}

// serverCommandFlags returns the flags following the word mmqjp-server in
// one command line, up to the next shell separator or comment.
func serverCommandFlags(cmd string) []string {
	i := strings.Index(cmd, "mmqjp-server")
	if i < 0 {
		return nil
	}
	rest := cmd[i+len("mmqjp-server"):]
	if j := strings.IndexAny(rest, "|&;#"); j >= 0 {
		rest = rest[:j]
	}
	return flagNames(rest)
}

// flagNames returns the names of the -flag tokens in s.
func flagNames(s string) (names []string) {
	for _, m := range flagUseRe.FindAllStringSubmatch(s, -1) {
		names = append(names, m[1])
	}
	return names
}

// checkServerFlags reports every flag attached to mmqjp-server (see the
// package comment for the rule) that is not in defined.
func checkServerFlags(path, text string, defined map[string]bool) (msgs []string) {
	report := func(line int, flags []string) {
		for _, name := range flags {
			if !defined[name] {
				msgs = append(msgs, fmt.Sprintf("%s:%d: mmqjp-server has no flag -%s (%s)", path, line, name, serverMain))
			}
		}
	}
	lines := strings.Split(text, "\n")
	inBlock, isSh := false, false
	for i := 0; i < len(lines); i++ {
		trimmed := strings.TrimSpace(lines[i])
		if strings.HasPrefix(trimmed, "```") {
			isSh = !inBlock && strings.TrimPrefix(trimmed, "```") == "sh"
			inBlock = !inBlock
			continue
		}
		if inBlock {
			if !isSh {
				continue
			}
			// One command, with its backslash continuations.
			start, cmd := i, trimmed
			for strings.HasSuffix(cmd, "\\") && i+1 < len(lines) {
				i++
				cmd = strings.TrimSuffix(cmd, "\\") + " " + strings.TrimSpace(lines[i])
			}
			report(start+1, serverCommandFlags(cmd))
			continue
		}
		if trimmed == "" {
			continue
		}
		// One paragraph: consecutive non-blank lines outside fences.
		start := i
		for i+1 < len(lines) && strings.TrimSpace(lines[i+1]) != "" && !strings.HasPrefix(strings.TrimSpace(lines[i+1]), "```") {
			i++
		}
		aboutServer := serverRe.MatchString(strings.Join(lines[start:i+1], "\n"))
		for j := start; j <= i; j++ {
			for _, m := range codeSpanRe.FindAllStringSubmatch(lines[j], -1) {
				span := m[1]
				switch {
				case strings.Contains(span, "mmqjp-server"):
					report(j+1, serverCommandFlags(span))
				case aboutServer && strings.HasPrefix(span, "-"):
					report(j+1, flagNames(span))
				}
			}
		}
	}
	return msgs
}

var (
	makeTargetRe = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	makeUseRe    = regexp.MustCompile(`\bmake((?:[ \t]+[a-z][a-z0-9-]*)+)`)
	goRunRe      = regexp.MustCompile(`\bgo run(?:\s+-C\s+(\S+))?\s+\./cmd/([A-Za-z0-9_-]+)`)
	experimentRe = regexp.MustCompile(`(?:^|\s)-experiment[ =]([^\s]+)`)
)

// checkCommands reports every quoted command of one markdown file that no
// longer exists (see the package comment for the three forms). root is the
// repository root; targets are the Makefile's.
func checkCommands(path, text, root string, targets map[string]bool) (msgs []string) {
	check := func(line int, code string) {
		for _, m := range makeUseRe.FindAllStringSubmatch(code, -1) {
			for _, target := range strings.Fields(m[1]) {
				if !targets[target] {
					msgs = append(msgs, fmt.Sprintf("%s:%d: the Makefile has no target %q", path, line, target))
				}
			}
		}
		for _, m := range goRunRe.FindAllStringSubmatch(code, -1) {
			dir := filepath.Join(m[1], "cmd", m[2])
			if info, err := os.Stat(filepath.Join(root, dir)); err != nil || !info.IsDir() {
				msgs = append(msgs, fmt.Sprintf("%s:%d: go run: no directory %s", path, line, dir))
			}
		}
		for _, m := range experimentRe.FindAllStringSubmatch(code, -1) {
			for _, id := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == '|' }) {
				if id != "all" && !slices.Contains(bench.All(), id) {
					msgs = append(msgs, fmt.Sprintf("%s:%d: mmqjp-bench has no experiment %q", path, line, id))
				}
			}
		}
	}
	inBlock, isGo := false, false
	for i, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			isGo = !inBlock && strings.TrimPrefix(trimmed, "```") == "go"
			inBlock = !inBlock
		case inBlock && !isGo:
			check(i+1, line)
		case !inBlock:
			for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
				check(i+1, m[1])
			}
		}
	}
	return msgs
}
