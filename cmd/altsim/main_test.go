package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestParseLoads(t *testing.T) {
	got, err := parseLoads("8, 10 ,12.5")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{8, 10, 12.5}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseLoads = %v, want %v", got, want)
	}
	empty, err := parseLoads("")
	if err != nil || empty != nil {
		t.Errorf("empty: %v %v", empty, err)
	}
	if _, err := parseLoads("8,x"); err == nil {
		t.Error("bad token: want error")
	}
}

func TestPick(t *testing.T) {
	if pick(0, 11) != 11 || pick(6, 11) != 6 || pick(-1, 11) != 11 {
		t.Error("pick defaults wrong")
	}
}

func TestMustPassesValues(t *testing.T) {
	if got := must(42, nil); got != 42 {
		t.Errorf("must = %v", got)
	}
}

// TestNonFiniteSpanIsUsageError runs altsim's main in a child process: a
// non-finite -horizon or -warmup must exit 2 at once, not hang generating
// an endless trace.
func TestNonFiniteSpanIsUsageError(t *testing.T) {
	if args := os.Getenv("ALTSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"altsim"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{
		"quad -horizon NaN", "quad -horizon Inf", "quad -horizon -Inf",
		"nsfnet -warmup NaN", "nsfnet -warmup +Inf",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run", "^TestNonFiniteSpanIsUsageError$")
		cmd.Env = append(os.Environ(), "ALTSIM_TEST_ARGS="+args)
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("altsim %s: err %v, want exit status 2; output:\n%s", args, err, out)
		} else if !strings.Contains(string(out), "must be finite") {
			t.Errorf("altsim %s: output lacks the reason:\n%s", args, out)
		}
	}
}
