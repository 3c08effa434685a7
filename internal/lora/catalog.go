package lora

import "fmt"

// Model names a pre-trained model of the catalog in one byte: the code a
// task carries at rest and in the journal, rendered by name on the wire
// and in workload files. The zero Model names none — a task that leaves
// it unset fine-tunes its instance's default model.
type Model uint8

// The catalog's models. A new model takes the next free code: the
// journal persists the codes.
const (
	ModelGPT2Small Model = iota + 1
	ModelGPT2Medium
)

// catalog is every model this package can size, keyed by code; entry 0,
// left zero, is the unnamed default.
var catalog = [...]struct {
	name   string
	config func() ModelConfig
}{
	ModelGPT2Small:  {"gpt2-small", GPT2Small},
	ModelGPT2Medium: {"gpt2-medium", GPT2Medium},
}

// NumModels bounds the codes: an array indexed by Model has this length.
const NumModels = len(catalog)

// Valid reports whether m is the zero Model or a catalog code.
func (m Model) Valid() bool { return int(m) < NumModels }

// String returns the model's name ("" for the zero Model); a code outside
// the catalog (only a corrupt input can hold one) renders as model(n).
func (m Model) String() string {
	if m.Valid() {
		return catalog[m].name
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// Config returns the catalog model's configuration. The zero Model and a
// code outside the catalog have none: they return the zero ModelConfig,
// which fails Validate.
func (m Model) Config() ModelConfig {
	if m == 0 || !m.Valid() {
		return ModelConfig{}
	}
	return catalog[m].config()
}

// MarshalText implements encoding.TextMarshaler with String's names.
func (m Model) MarshalText() ([]byte, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("lora: unknown model code %d", uint8(m))
	}
	return []byte(catalog[m].name), nil
}

// UnmarshalText implements encoding.TextUnmarshaler: a name outside the
// catalog is refused.
func (m *Model) UnmarshalText(text []byte) error {
	v, err := ModelNamed(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// ModelNamed looks a name up in the catalog; the empty name is the zero
// Model, and any name the catalog does not hold is an error.
func ModelNamed(name string) (Model, error) {
	for code, e := range catalog {
		if name == e.name {
			return Model(code), nil
		}
	}
	return 0, fmt.Errorf("lora: model %q is not in the catalog", name)
}

// Code returns the catalog code of the configuration's name. A name the
// catalog does not hold, the empty one included, is an error: whatever
// serves a model must be able to name it in a task.
func (c ModelConfig) Code() (Model, error) {
	m, err := ModelNamed(c.Name)
	if err == nil && m == 0 {
		err = fmt.Errorf("lora: a served model needs a catalog name")
	}
	return m, err
}
