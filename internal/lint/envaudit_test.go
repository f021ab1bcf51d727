package lint

import (
	"strings"
	"testing"
)

// TestEnvAudit drives the span-kind audit over the real module with
// deliberately broken configurations: each mutation must produce exactly
// the finding class it seeds. (The unmutated configuration is covered by
// TestRepoIsClean: zero findings.)
func TestEnvAudit(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(cfg EnvAuditConfig) []string {
		var got []string
		for _, d := range Run(pkgs, []Analyzer{NewEnvAudit(cfg)}) {
			got = append(got, d.Message)
		}
		return got
	}
	expectOnly := func(t *testing.T, got []string, want ...string) {
		t.Helper()
		diffStrings(t, got, want)
	}

	t.Run("clean", func(t *testing.T) {
		expectOnly(t, runWith(DefaultEnvAuditConfig()))
	})

	t.Run("unnecessary kind exemption", func(t *testing.T) {
		cfg := DefaultEnvAuditConfig()
		cfg.KindExemptions["KindDispatch"] = "fixture: but tests do assert it"
		got := runWith(cfg)
		if len(got) != 1 || !strings.Contains(got[0],
			`span kind KindDispatch is exempt ("fixture: but tests do assert it") but tests assert it — remove the exemption`) {
			t.Errorf("got %q", got)
		}
	})

	t.Run("unknown kind exemption", func(t *testing.T) {
		cfg := DefaultEnvAuditConfig()
		cfg.KindExemptions["KindTeleport"] = "fixture: no such kind"
		expectOnly(t, runWith(cfg),
			"EnvAuditConfig.KindExemptions names unknown span kind KindTeleport — remove it")
	})
}
